package tensor

// amd64 wiring for the elementwise kernels (elem_amd64.s); they need AVX2,
// which TierFMA implies.

// reluAVX2 is ReLU over len(src) elements, zero included.
//
//go:noescape
func reluAVX2(dst, src []float32)

// poolWindow2AVX2 is PoolWindow at stride 2: len(acc) >= 1, rows, cols >= 1,
// len(src) = (rows-1)*ld + 2*(len(acc)-1) + cols.
//
//go:noescape
func poolWindow2AVX2(acc, src []float32, ld, rows, cols int, maxPool bool)

// lrnStep75AVX is LRNStep75 over len(dst) elements, a positive multiple of 8,
// add and sub present; it needs AVX only, which TierFMA implies.
//
//go:noescape
func lrnStep75AVX(dst, src []float32, sums []float64, add, sub []float32, k, scale float64)
