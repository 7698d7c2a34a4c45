package tensor

// amd64 wiring for the elementwise kernels (elem_amd64.s); they need AVX2,
// which TierFMA implies.

// reluAVX2 is ReLU over len(src) elements, zero included.
//
//go:noescape
func reluAVX2(dst, src []float32)

// maxStride2AVX2 is MaxStride at stride 2: len(acc) >= 1, len(src) >= 2*len(acc)-1.
//
//go:noescape
func maxStride2AVX2(acc, src []float32)

// addStride2AVX2 is AddStride at stride 2: len(acc) >= 1, len(src) >= 2*len(acc)-1.
//
//go:noescape
func addStride2AVX2(acc, src []float32)

// lrnStep75AVX is LRNStep75 over len(dst) elements, a positive multiple of 8,
// add and sub present; it needs AVX only, which TierFMA implies.
//
//go:noescape
func lrnStep75AVX(dst, src []float32, sums []float64, add, sub []float32, k, scale float64)
