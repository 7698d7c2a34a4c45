//go:build !amd64

package tensor

// Non-amd64 platforms run GemmNN entirely on the portable rung, which shares
// the summation order of the vector microkernels bit for bit.  The detected
// tier is generic, so nnColumns hands the kernels below no columns.

func gemmNNKernel(dst, a, b []float32, kc, nc, ldd, ldb, lda int) { panic("tensor: no vector gemm") }

func gemmNNKernel32(dst, a, b []float32, kc, nc, ldd, ldb, lda int) { panic("tensor: no vector gemm") }

func gemmNNKernel1(dst, a, b []float32, kc, nc, ldb int) { panic("tensor: no vector gemm") }
