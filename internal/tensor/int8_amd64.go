package tensor

// amd64 wiring for the int8 kernels (int8_amd64.s).  The kernels need AVX2
// (VPMADDUBSW/VPMADDWD); the FMA tier implies AVX2, so the int8 vector path
// follows the same override ladder as the float fast kernels — forcing
// TierGeneric exercises the portable fallback, which is bit-identical in
// integer space.  The AVX-512 rung runs the 512-bit VPDPBUSD kernel when the
// CPU also reports AVX512_VNNI and the AVX2 kernel otherwise: same 16-column
// tile layout, same ±63 weight cap, same exact int32 sums.

// gemmInt8KernelAVX2 computes acc[r][j] = sum_l w[r][l]*bp(l, j) for r in
// [0,4), j in [0,nc), over kc4*4 depth steps: w rows are ldw bytes apart
// (signed weights), bp is the PackColsU8 depth-4-interleaved offset-binary
// activation block, and acc rows are nc int32s apart.  nc must be a positive
// multiple of int8NR; kc4 positive.  acc is overwritten, not accumulated.
//
//go:noescape
func gemmInt8KernelAVX2(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int)

// gemmInt8KernelVNNI is gemmInt8KernelAVX2 over int8MR weight rows, one
// VPDPBUSD per row and 64-byte depth block; kc4 must be even.
//
//go:noescape
func gemmInt8KernelVNNI(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int)

// dotInt8Kernel returns sum_l w[l]*x[l] for signed weights against
// offset-binary activations; n must be a positive multiple of 32.
//
//go:noescape
func dotInt8Kernel(w []int8, x []uint8, n int) int32

// quantTilesU8AVX2 quantizes kc4 four-row depth blocks of `halves` 8-column
// half tiles of src (rows lds floats apart) into the u8 tile layout at dst,
// pre-offset to the first depth block of an even half.  Both counts positive.
//
//go:noescape
func quantTilesU8AVX2(dst []uint8, src []float32, kc4, halves, lds, kPad int, inv float32)

// quantU8AVX2 quantizes src[:n] to offset-binary bytes in dst, one byte per
// value with quantTilesU8AVX2's arithmetic; n a positive multiple of 8.
//
//go:noescape
func quantU8AVX2(dst []uint8, src []float32, n int, inv float32)

// dequantRowAVX2 writes dst[j] = float32(acc[j]-c)*f + b0, product and sum
// each rounded, for j < len(dst), a positive multiple of 8.
//
//go:noescape
func dequantRowAVX2(dst []float32, acc []int32, c int32, f, b0 float32)

// maxAbsAVX2 returns max |src[i]| for i < n; n a positive multiple of 8.
//
//go:noescape
func maxAbsAVX2(src []float32, n int) float32

// quantRowS8AVX2 quantizes src[:n] to dst with PackInt8's rule and returns
// the sum of the quantized values; n a positive multiple of 8.
//
//go:noescape
func quantRowS8AVX2(dst []int8, src []float32, n int, inv float32) int32

// int8VNNIDetected is CPUID.7.0:ECX[11] (AVX512_VNNI) under the AVX-512 tier.
var int8VNNIDetected = detectInt8VNNI()

func detectInt8VNNI() bool {
	if fastTierDetected < TierAVX512 {
		return false
	}
	_, _, ecx7, _ := cpuidex(7, 0)
	return ecx7&(1<<11) != 0
}

// int8Vector reports whether the int8 vector kernels are usable under the
// active tier.
func int8Vector() bool { return fastTier >= TierFMA }

// gemmInt8Kernel runs the active rung's microkernel over int8MR weight rows.
func gemmInt8Kernel(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int) {
	if fastTier >= TierAVX512 && int8VNNIDetected {
		gemmInt8KernelVNNI(acc, w, bp, kc4, nc, ldw)
		return
	}
	gemmInt8KernelAVX2(acc, w, bp, kc4, nc, ldw)
	gemmInt8KernelAVX2(acc[4*nc:], w[4*ldw:], bp, kc4, nc, ldw)
}
