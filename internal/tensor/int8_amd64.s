// Int8 microkernels (see int8.go): u8 offset-binary activations against s8
// weights via VPMADDUBSW + VPMADDWD (AVX2) or VPDPBUSD (AVX-512 VNNI),
// accumulating exactly in int32.  Weight quantization is capped at ±63, which
// keeps the paired VPMADDUBSW products inside int16 (255*63*2 = 32130 <
// 32767), so the kernels never saturate and match the portable fallback bit
// for bit.

#include "textflag.h"

// I8ROW adds weight row w's products with the depth block in Y8 (columns 0-7)
// and Y9 (8-15) to the row's two accumulators.
#define I8ROW(w, lo, hi) \
	VPBROADCASTD (w)(SI*1), Y15; \
	VPMADDUBSW   Y15, Y8, Y10; \
	VPMADDUBSW   Y15, Y9, Y11; \
	VPMADDWD     Y14, Y10, Y10; \
	VPMADDWD     Y14, Y11, Y11; \
	VPADDD       Y10, lo, lo; \
	VPADDD       Y11, hi, hi

// func gemmInt8KernelAVX2(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int)
//
// 4x16 int32 tile over kc4 four-deep blocks: acc[r][j] = sum of
// w[r][l]*bp(l, j).  w rows are ldw bytes apart; bp is the PackColsU8
// column-tile-major activation block — each 16-column tile stores its kc4
// 64-byte depth blocks contiguously, read here as two 32-byte halves, so the
// kernel streams bp strictly sequentially across the whole call; acc rows are
// nc int32s apart, nc a positive multiple of 16.  Callers pre-offset the bases.
TEXT ·gemmInt8KernelAVX2(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ w_base+24(FP), R12
	MOVQ bp_base+48(FP), DX  // bp streams sequentially across column tiles
	MOVQ kc4+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldw+88(FP), R9
	SHLQ $2, R8              // acc row stride, bytes

	// Y14 = sixteen int16 ones for the VPMADDWD pair reduction.
	VPCMPEQW Y14, Y14, Y14
	VPSRLW   $15, Y14, Y14

	// w row pointers (advance via the shared depth offset in SI below).
	LEAQ (R12)(R9*1), R13    // w1
	LEAQ (R13)(R9*1), R14    // w2
	LEAQ (R14)(R9*1), R15    // w3

	XORQ AX, AX              // output column byte offset

i8col:
	VPXOR Y0, Y0, Y0         // rows 0-3, columns 0-7
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4         // rows 0-3, columns 8-15
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7

	XORQ SI, SI              // depth-block byte offset into the w rows
	MOVQ CX, R11             // depth-block counter

i8k:
	VMOVDQU (DX), Y8         // 16 columns x 4 depth steps of u8 activations
	VMOVDQU 32(DX), Y9
	ADDQ    $64, DX          // next depth block of this tile
	I8ROW(R12, Y0, Y4)
	I8ROW(R13, Y1, Y5)
	I8ROW(R14, Y2, Y6)
	I8ROW(R15, Y3, Y7)
	ADDQ $4, SI
	DECQ R11
	JNE  i8k

	LEAQ (DI)(AX*1), BX
	VMOVDQU Y0, (BX)
	VMOVDQU Y4, 32(BX)
	ADDQ R8, BX
	VMOVDQU Y1, (BX)
	VMOVDQU Y5, 32(BX)
	ADDQ R8, BX
	VMOVDQU Y2, (BX)
	VMOVDQU Y6, 32(BX)
	ADDQ R8, BX
	VMOVDQU Y3, (BX)
	VMOVDQU Y7, 32(BX)

	ADDQ $64, AX             // next 16-column tile
	CMPQ AX, R8
	JLT  i8col

	VZEROUPPER
	RET

// VNROWOUT sums a row's two depth-block chains and stores its tile at BX.
#define VNROWOUT(lo, hi) \
	VPADDD    hi, lo, lo; \
	VMOVDQU32 lo, (BX); \
	ADDQ      R8, BX

// func gemmInt8KernelVNNI(acc []int32, w []int8, bp []uint8, kc4, nc, ldw int)
//
// gemmInt8KernelAVX2's contract on AVX-512 VNNI, over eight weight rows: one
// 64-byte load takes a tile's whole depth block and one VPDPBUSD with an
// embedded 4-byte weight broadcast does the quartet's work.  VPDPBUSD has a
// 5-cycle latency and issues twice a cycle, so each iteration takes two depth
// blocks into sixteen independent chains (8 rows x 2 blocks), summed at the
// tile's end; kc4 must be even (kPad is a multiple of 32, so it always is).
TEXT ·gemmInt8KernelVNNI(SB), NOSPLIT, $0-96
	MOVQ acc_base+0(FP), DI
	MOVQ w_base+24(FP), R12
	MOVQ bp_base+48(FP), DX
	MOVQ kc4+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldw+88(FP), R9
	SHLQ $2, R8              // acc row stride, bytes
	LEAQ (R12)(CX*4), R14    // end of w row 0
	LEAQ (R9)(R9*2), R10     // 3*ldw: rows 3 and 6
	LEAQ (R9)(R9*4), R11     // 5*ldw
	LEAQ (R10)(R9*4), R13    // 7*ldw

	XORQ AX, AX              // output column byte offset

vncol:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15
	MOVQ   R12, SI           // w row 0 at the current depth

vnk:
	VMOVDQU64 (DX), Z16      // depth block d:   16 columns x 4 u8
	VMOVDQU64 64(DX), Z17    // depth block d+1
	ADDQ      $128, DX
	VPDPBUSD.BCST (SI), Z16, Z0
	VPDPBUSD.BCST 4(SI), Z17, Z8
	VPDPBUSD.BCST (SI)(R9*1), Z16, Z1
	VPDPBUSD.BCST 4(SI)(R9*1), Z17, Z9
	VPDPBUSD.BCST (SI)(R9*2), Z16, Z2
	VPDPBUSD.BCST 4(SI)(R9*2), Z17, Z10
	VPDPBUSD.BCST (SI)(R10*1), Z16, Z3
	VPDPBUSD.BCST 4(SI)(R10*1), Z17, Z11
	VPDPBUSD.BCST (SI)(R9*4), Z16, Z4
	VPDPBUSD.BCST 4(SI)(R9*4), Z17, Z12
	VPDPBUSD.BCST (SI)(R11*1), Z16, Z5
	VPDPBUSD.BCST 4(SI)(R11*1), Z17, Z13
	VPDPBUSD.BCST (SI)(R10*2), Z16, Z6
	VPDPBUSD.BCST 4(SI)(R10*2), Z17, Z14
	VPDPBUSD.BCST (SI)(R13*1), Z16, Z7
	VPDPBUSD.BCST 4(SI)(R13*1), Z17, Z15
	ADDQ $8, SI
	CMPQ SI, R14
	JLT  vnk

	LEAQ (DI)(AX*1), BX
	VNROWOUT(Z0, Z8)
	VNROWOUT(Z1, Z9)
	VNROWOUT(Z2, Z10)
	VNROWOUT(Z3, Z11)
	VNROWOUT(Z4, Z12)
	VNROWOUT(Z5, Z13)
	VNROWOUT(Z6, Z14)
	VNROWOUT(Z7, Z15)

	ADDQ $64, AX             // next 16-column tile
	CMPQ AX, R8
	JLT  vncol

	VZEROUPPER
	RET

// func dequantRowAVX2(dst []float32, acc []int32, c int32, f, b0 float32)
//
// gemmInt8Rows' exit step over len(dst) elements, a positive multiple of 8:
// VMULPS then VADDPS, never an FMA, as the scalar expression rounds.
TEXT ·dequantRowAVX2(SB), NOSPLIT, $0-60
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ acc_base+24(FP), SI
	MOVL c+48(FP), AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13
	VBROADCASTSS f+52(FP), Y14
	VBROADCASTSS b0+56(FP), Y15

dqloop:
	VMOVDQU   (SI), Y0
	VPSUBD    Y13, Y0, Y0
	VCVTDQ2PS Y0, Y0
	VMULPS    Y14, Y0, Y0
	VADDPS    Y15, Y0, Y0
	VMOVUPS   Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JNE  dqloop

	VZEROUPPER
	RET

// func quantTilesU8AVX2(dst []uint8, src []float32, kc4, halves, lds, kPad int, inv float32)
//
// The quantize-and-interleave core of the u8 activation layout: for each of
// `halves` 8-column half tiles and each of kc4 four-row depth blocks it reads
// four rows x eight columns of src (rows lds floats apart) and emits its
// 32-byte half of the tile's 64-byte depth block directly.  Per value: x = v*inv (rounded to float32), x plus
// copysign(0.5, x), truncate — exactly roundHalfAway — then the low byte of
// each int32 plus 128, row r of the block landing in byte r of its column's
// dword.  dst is pre-offset to the first depth block of an even half; an odd
// half starts 32 bytes after its even one, the next tile kPad*16 bytes after
// this one.
TEXT ·quantTilesU8AVX2(SB), NOSPLIT, $0-84
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ kc4+48(FP), CX
	MOVQ halves+56(FP), R8
	MOVQ lds+64(FP), R9
	MOVQ kPad+72(FP), R11
	VBROADCASTSS inv+80(FP), Y15
	SHLQ $2, R9              // src row stride, bytes
	LEAQ (R9)(R9*2), R10     // three rows
	SHLQ $4, R11             // dst tile stride, bytes
	SUBQ $32, R11            // odd half -> the next tile's even half
	MOVQ $32, R12            // even half -> its odd half

	VPCMPEQD   Y14, Y14, Y14
	VPSRLD     $24, Y14, Y12 // 0x000000ff: low byte of each int32
	VPSRLD     $26, Y14, Y13
	VPSLLD     $24, Y13, Y13 // 0x3f000000: 0.5
	VPSLLW     $7, Y14, Y11
	VPACKSSWB  Y11, Y11, Y11 // 0x80 in every byte: +128 mod 256
	VPSLLD     $31, Y14, Y14 // sign mask

qttile:
	MOVQ DI, DX
	MOVQ SI, BX
	MOVQ CX, AX

qtblock:
	VMULPS (BX), Y15, Y0
	VMULPS (BX)(R9*1), Y15, Y1
	VMULPS (BX)(R9*2), Y15, Y2
	VMULPS (BX)(R10*1), Y15, Y3
	VANDPS Y14, Y0, Y4
	VANDPS Y14, Y1, Y5
	VANDPS Y14, Y2, Y6
	VANDPS Y14, Y3, Y7
	VORPS  Y13, Y4, Y4
	VORPS  Y13, Y5, Y5
	VORPS  Y13, Y6, Y6
	VORPS  Y13, Y7, Y7
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VCVTTPS2DQ Y0, Y0
	VCVTTPS2DQ Y1, Y1
	VCVTTPS2DQ Y2, Y2
	VCVTTPS2DQ Y3, Y3
	VPAND  Y12, Y0, Y0
	VPAND  Y12, Y1, Y1
	VPAND  Y12, Y2, Y2
	VPSLLD $8, Y1, Y1
	VPSLLD $16, Y2, Y2
	VPSLLD $24, Y3, Y3
	VPOR   Y1, Y0, Y0
	VPOR   Y3, Y2, Y2
	VPOR   Y2, Y0, Y0
	VPXOR  Y11, Y0, Y0
	VMOVDQU Y0, (DX)
	ADDQ $64, DX
	LEAQ (BX)(R9*4), BX
	DECQ AX
	JNE  qtblock

	ADDQ  R12, DI
	XCHGQ R12, R11
	ADDQ  $32, SI
	DECQ  R8
	JNE   qttile

	VZEROUPPER
	RET

// func quantU8AVX2(dst []uint8, src []float32, n int, inv float32)
//
// The contiguous form of quantTilesU8AVX2's per-value step: dst[i] = low
// byte of roundHalfAway(src[i]*inv), plus 128, for i < n, a positive multiple
// of 8.  Masking to the low byte first makes both packs exact.
TEXT ·quantU8AVX2(SB), NOSPLIT, $0-60
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), CX
	VBROADCASTSS inv+56(FP), Y15
	VPCMPEQD   Y14, Y14, Y14
	VPSRLD     $24, Y14, Y12 // 0x000000ff: low byte of each int32
	VPSRLD     $26, Y14, Y13
	VPSLLD     $24, Y13, Y13 // 0x3f000000: 0.5
	VPSLLW     $7, Y14, Y11
	VPACKSSWB  Y11, Y11, Y11 // 0x80 in every byte: +128 mod 256
	VPSLLD     $31, Y14, Y14 // sign mask

quloop:
	VMULPS (SI), Y15, Y0
	VANDPS Y14, Y0, Y1
	VORPS  Y13, Y1, Y1
	VADDPS Y1, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPAND      Y12, Y0, Y0
	VPACKUSDW  Y0, Y0, Y0
	VPACKUSWB  Y0, Y0, Y0    // each 128-bit lane: its four bytes in the low dword
	VEXTRACTI128 $1, Y0, X1
	VPUNPCKLDQ X1, X0, X0
	VPXOR      X11, X0, X0
	VMOVQ      X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNE  quloop

	VZEROUPPER
	RET

// func maxAbsAVX2(src []float32, n int) float32
//
// max |src[i]| over i < n; n must be a positive multiple of 8.  The running
// maximum is VMAXPS's second source, so a NaN element is skipped exactly as
// the scalar `v > max` test skips it.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-36
	MOVQ src_base+0(FP), SI
	MOVQ n+24(FP), CX
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $1, Y14, Y14    // 0x7fffffff
	VPXOR    Y0, Y0, Y0

maxloop:
	VANDPS (SI), Y14, Y1
	VMAXPS Y0, Y1, Y0
	ADDQ $32, SI
	SUBQ $8, CX
	JNE  maxloop

	VEXTRACTF128 $1, Y0, X1
	VMAXPS  X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VMAXPS  X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VMAXPS  X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+32(FP)
	RET

// func quantRowS8AVX2(dst []int8, src []float32, n int, inv float32) int32
//
// dst[i] = clamp(roundHalfAway(src[i]*inv), ±63) for i < n — the weight
// quantizer, int8WeightMax in its constant — and returns the sum of the
// quantized values; n must be a positive multiple of 8.
TEXT ·quantRowS8AVX2(SB), NOSPLIT, $0-68
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ n+48(FP), CX
	VBROADCASTSS inv+56(FP), Y15
	VPXOR    Y10, Y10, Y10   // running sum
	VPCMPEQD Y14, Y14, Y14
	VPSRLD   $26, Y14, Y12   // 63
	VPSUBD   Y12, Y10, Y11   // -63
	VPSLLD   $24, Y12, Y13   // 0x3f000000: 0.5
	VPSLLD   $31, Y14, Y14   // sign mask

qrloop:
	VMULPS (SI), Y15, Y0
	VANDPS Y14, Y0, Y1
	VORPS  Y13, Y1, Y1
	VADDPS Y1, Y0, Y0
	VCVTTPS2DQ Y0, Y0
	VPMINSD Y12, Y0, Y0
	VPMAXSD Y11, Y0, Y0
	VPADDD  Y0, Y10, Y10
	VPACKSSDW Y0, Y0, Y0
	VPACKSSWB Y0, Y0, Y0     // each 128-bit lane: its four values in the low dword
	VEXTRACTI128 $1, Y0, X1
	VMOVD X0, (DI)
	VMOVD X1, 4(DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JNE  qrloop

	VEXTRACTI128 $1, Y10, X1
	VPADDD  X1, X10, X10
	VPHADDD X10, X10, X10
	VPHADDD X10, X10, X10
	VZEROUPPER
	MOVQ X10, AX
	MOVL AX, ret+64(FP)
	RET

// func dotInt8Kernel(w []int8, x []uint8, n int) int32
//
// Contiguous s8 x offset-binary-u8 dot product; n must be a positive
// multiple of 32.
TEXT ·dotInt8Kernel(SB), NOSPLIT, $0-60
	MOVQ w_base+0(FP), SI
	MOVQ x_base+24(FP), DX
	MOVQ n+48(FP), CX

	VPCMPEQW Y14, Y14, Y14
	VPSRLW   $15, Y14, Y14
	VPXOR    Y0, Y0, Y0

i8dot:
	VMOVDQU    (DX), Y8      // activations (unsigned)
	VMOVDQU    (SI), Y9      // weights (signed)
	VPMADDUBSW Y9, Y8, Y10
	VPMADDWD   Y14, Y10, Y10
	VPADDD     Y10, Y0, Y0
	ADDQ $32, SI
	ADDQ $32, DX
	SUBQ $32, CX
	JNE  i8dot

	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPHADDD      X0, X0, X0
	VPHADDD      X0, X0, X0
	VZEROUPPER
	MOVQ X0, AX
	MOVL AX, ret+56(FP)
	RET
