package tensor

// amd64 wiring for the float GEMM's kernels (gemm_nn_amd64.s) and the
// CPUID/XGETBV ladder that picks the rung.

// gemmNNTile32 is the 4x32 ZMM tile with the bit-exact accumulate (VMULPS
// then VADDPS): dst[r][j] += sum_l A[r][l]*b[l][j] for r in [0,4), j in
// [0,nc), l in [0,kc), with dst rows ldd floats apart, b rows ldb apart and
// A[r][l] at a[r*lda+l*ldk].  nc must be a positive multiple of 32.
//
//go:noescape
func gemmNNTile32(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)

// gemmNNTile32FMA is gemmNNTile32 with VFMADD231PS.
//
//go:noescape
func gemmNNTile32FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)

// gemmNNTile16 is the 4x16 YMM tile with the bit-exact accumulate; nc must
// be a positive multiple of 16.
//
//go:noescape
func gemmNNTile16(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)

// gemmNNTile16FMA is gemmNNTile16 with VFMADD231PS.
//
//go:noescape
func gemmNNTile16FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)

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

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

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
