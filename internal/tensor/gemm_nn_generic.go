//go:build !amd64

package tensor

// Other architectures have no vector kernels: the detected tier is generic,
// so the GEMM driver hands the stubs below no columns and every entry point
// runs the portable loops, in the reference summation order.

var fastTierDetected = TierGeneric

func gemmNNTile32(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int) {
	panic("tensor: no vector gemm")
}

func gemmNNTile32FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int) {
	panic("tensor: no vector gemm")
}

func gemmNNTile16(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int) {
	panic("tensor: no vector gemm")
}

func gemmNNTile16FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int) {
	panic("tensor: no vector gemm")
}

func dotFMA(a, b []float32, n int) float32 { panic("tensor: no vector dot") }

func dotAVX512(a, b []float32, n int) float32 { panic("tensor: no vector dot") }
