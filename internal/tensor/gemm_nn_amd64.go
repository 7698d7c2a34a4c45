package tensor

// amd64 wiring for the reference GEMM's microkernels (gemm_nn_amd64.s) and
// the CPUID/XGETBV probes behind detectFastTier.

// gemmNNKernel is the AVX2 4x8 register-tile microkernel: dst rows ldd
// floats apart, b rows ldb apart, a rows lda apart.  nc must be a positive
// multiple of 8.
//
//go:noescape
func gemmNNKernel(dst, a, b []float32, kc, nc, ldd, ldb, lda int)

// gemmNNKernel32 is the AVX-512 4x32 tile of the same kernel, with the same
// arguments; nc must be a positive multiple of 32.
//
//go:noescape
func gemmNNKernel32(dst, a, b []float32, kc, nc, ldd, ldb, lda int)

// gemmNNKernel1 is the 1x8 tile of the AVX2 kernel for the m%4 remainder
// rows (a depthwise group has a single output row).  nc must be a positive
// multiple of 8.
//
//go:noescape
func gemmNNKernel1(dst, a, b []float32, kc, nc, ldb int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)
