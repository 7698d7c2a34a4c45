package tensor

// amd64 wiring for the GemmNN vector microkernels: runtime AVX2 detection
// via CPUID/XGETBV so the same binary runs on pre-AVX2 hardware through the
// portable rung.

// gemmNNKernel is the AVX2 4x8 register-tile microkernel (gemm_nn_amd64.s):
// dst rows ldd floats apart, b rows ldb apart, a rows lda apart.  nc must
// be a positive multiple of 8.
//
//go:noescape
func gemmNNKernel(dst, a, b []float32, kc, nc, ldd, ldb, lda int)

// gemmNNKernel1 is the 1x8 tile of the same kernel for the m%4 remainder
// rows (a depthwise group has a single output row).  nc must be a positive
// multiple of 8.
//
//go:noescape
func gemmNNKernel1(dst, a, b []float32, kc, nc, ldb int)

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// gemmNNVectorDetected reports whether the vector microkernels are usable:
// the CPU supports AVX2 and the OS saves/restores the YMM state.
var gemmNNVectorDetected = detectAVX2()

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM and YMM state enabled by the OS
		return false
	}
	_, ebx7, _, _ := cpuidex(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
