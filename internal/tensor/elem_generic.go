//go:build !amd64

package tensor

// Non-amd64 builds run the scalar loops of elem.go; the detected tier is
// generic, so the kernels are never called.

func reluAVX2(dst, src []float32) { panic("tensor: vector relu kernel unavailable") }

func maxStride2AVX2(acc, src []float32) { panic("tensor: vector stride kernel unavailable") }

func addStride2AVX2(acc, src []float32) { panic("tensor: vector stride kernel unavailable") }

func lrnStep75AVX(dst, src []float32, sums []float64, add, sub []float32, k, scale float64) {
	panic("tensor: vector lrn kernel unavailable")
}
