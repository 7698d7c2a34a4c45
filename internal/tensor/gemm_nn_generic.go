//go:build !amd64

package tensor

// Non-amd64 platforms run GemmNN entirely on the portable rung, which shares
// the summation order of the vector microkernels bit for bit.

const gemmNNVectorDetected = false

// The vector kernels are never called when gemmNNVector is false.

func gemmNNKernel(dst, a, b []float32, kc, nc, ldd, ldb, lda int) {
	panic("tensor: vector gemm kernel unavailable")
}

func gemmNNKernel1(dst, a, b []float32, kc, nc, ldb int) {
	panic("tensor: vector gemm kernel unavailable")
}
