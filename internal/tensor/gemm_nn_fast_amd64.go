package tensor

// amd64 wiring for the fast-numerics kernels (gemm_nn_fma_amd64.s): runtime
// CPUID/XGETBV detection of the FMA and AVX-512 tiers.  Unlike the
// reference kernel's single AVX2 flag, detection here is a ladder so the
// override hook (SetFastTier) can walk the same binary through every rung.

// gemmNNFMAKernel is the AVX2+FMA 4x16 register-tile microkernel.  It
// accumulates dst[r][j] += sum_l ap[l*4+r]*b[l][j] for r in [0,4), j in
// [0,nc), l in [0,kc) with fused multiply-adds on 8 independent accumulator
// registers.  ap is the depth-interleaved packed A panel (PackA layout)
// advanced to the kernel's depth offset; dst rows are ldd floats apart and
// b rows ldb floats apart (separate strides let a convolution patch panel with
// its own compact stride accumulate into a strided NCHW output block).
// nc must be a positive multiple of 16; kc positive.  Callers pre-offset
// the slice bases.
//
//go:noescape
func gemmNNFMAKernel(dst, ap, b []float32, kc, nc, ldd, ldb int)

// gemmNNAVX512Kernel is the AVX-512 4x32 variant of gemmNNFMAKernel: the
// same packed-A layout feeding 8 ZMM accumulator chains.  nc must be a
// positive multiple of 32.
//
//go:noescape
func gemmNNAVX512Kernel(dst, ap, b []float32, kc, nc, ldd, ldb int)

// dotFMA returns the FMA dot product of a[:n] and b[:n] over four
// independent 8-lane accumulator chains.  n must be a positive multiple of
// 32.  The reduction order differs from the scalar loop (fast tier only).
//
//go:noescape
func dotFMA(a, b []float32, n int) float32

// dotAVX512 is dotFMA with four 16-lane ZMM chains; n must be a positive
// multiple of 64.
//
//go:noescape
func dotAVX512(a, b []float32, n int) float32

var fastTierDetected = detectFastTier()

// detectFastTier walks the CPUID/XGETBV ladder: FMA requires AVX2+FMA with
// OS YMM state; AVX-512 additionally requires the F/DQ/BW/VL server set and
// OS opmask+ZMM state (XCR0 bits 5-7).
func detectFastTier() SIMDTier {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return TierGeneric
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || ecx1&fma == 0 {
		return TierGeneric
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return TierGeneric
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	if ebx7&avx2 == 0 {
		return TierGeneric
	}
	const avx512f, avx512dq, avx512bw, avx512vl = 1 << 16, 1 << 17, 1 << 30, 1 << 31
	const avx512Set = avx512f | avx512dq | avx512bw | avx512vl
	if xcr0&0xe6 == 0xe6 && ebx7&avx512Set == avx512Set {
		return TierAVX512
	}
	return TierFMA
}
