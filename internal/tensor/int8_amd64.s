// AVX2 int8 microkernels (see int8.go): u8 offset-binary activations
// against s8 weights via VPMADDUBSW + VPMADDWD, accumulating exactly in
// int32.  Weight quantization is capped at ±63, which keeps the paired
// VPMADDUBSW products inside int16 (255*63*2 = 32130 < 32767), so the
// kernels never saturate and match the portable fallback bit for bit.

#include "textflag.h"

// func gemmInt8KernelAVX2(acc []int32, w []int8, bp []uint8, kc4, nc, ldw, n int)
//
// 4x8 int32 tile over kc4 four-deep blocks: acc[r][j] = sum of
// w[r][l]*bp(l, j).  w rows are ldw bytes apart; bp is the PackColsU8
// column-tile-major activation block — each 8-column tile stores its kc4
// 32-byte depth blocks contiguously, so the kernel streams bp strictly
// sequentially across the whole call; acc rows are n int32s apart.  nc must
// be a positive multiple of 8.  Callers pre-offset the slice bases.
TEXT ·gemmInt8KernelAVX2(SB), NOSPLIT, $0-104
	MOVQ acc_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ bp_base+48(FP), BX
	MOVQ kc4+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldw+88(FP), R9
	MOVQ n+96(FP), R10
	SHLQ $2, R10             // acc row stride == bp depth-block stride, bytes

	// Y14 = sixteen int16 ones for the VPMADDWD pair reduction.
	VPCMPEQW Y14, Y14, Y14
	VPSRLW   $15, Y14, Y14

	// w row pointers (advance via the shared depth offset in SI below).
	MOVQ SI, R12             // w0
	LEAQ (R12)(R9*1), R13    // w1
	LEAQ (R13)(R9*1), R14    // w2
	LEAQ (R14)(R9*1), R15    // w3

	XORQ AX, AX              // output column index
	MOVQ BX, DX              // bp streams sequentially across column tiles

i8col:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3

	XORQ SI, SI              // depth-block byte offset into the w rows
	MOVQ CX, R11             // depth-block counter

i8k:
	VMOVDQU      (DX), Y8    // 8 columns x 4 depth steps of u8 activations
	ADDQ         $32, DX     // next depth block of this tile
	VPBROADCASTD (R12)(SI*1), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y14, Y10, Y10
	VPADDD       Y10, Y0, Y0
	VPBROADCASTD (R13)(SI*1), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y14, Y10, Y10
	VPADDD       Y10, Y1, Y1
	VPBROADCASTD (R14)(SI*1), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y14, Y10, Y10
	VPADDD       Y10, Y2, Y2
	VPBROADCASTD (R15)(SI*1), Y9
	VPMADDUBSW   Y9, Y8, Y10
	VPMADDWD     Y14, Y10, Y10
	VPADDD       Y10, Y3, Y3
	ADDQ $4, SI
	DECQ R11
	JNE  i8k

	// ldw in R9 is dead after the row-pointer setup; reuse it for stores.
	LEAQ (DI)(AX*4), R9
	VMOVDQU Y0, (R9)
	ADDQ R10, R9
	VMOVDQU Y1, (R9)
	ADDQ R10, R9
	VMOVDQU Y2, (R9)
	ADDQ R10, R9
	VMOVDQU Y3, (R9)

	ADDQ $8, AX              // next 8-column block
	CMPQ AX, R8
	JLT  i8col

	VZEROUPPER
	RET

// func gemmInt8KernelVNNI(acc []int32, w []int8, bp []uint8, kc4, nc, ldw, n int)
//
// gemmInt8Kernel's contract on AVX-512 VNNI: one VPDPBUSD with an embedded
// 4-byte weight broadcast replaces the VPBROADCASTD/VPMADDUBSW/VPMADDWD/
// VPADDD quartet on the same tile layout.  VPDPBUSD has a 5-cycle latency,
// so each iteration takes two depth blocks into eight independent
// accumulator chains (4 rows x 2 blocks) that are summed at the tile's end;
// kc4 must be even (kPad is a multiple of 32, so it always is).
TEXT ·gemmInt8KernelVNNI(SB), NOSPLIT, $0-104
	MOVQ acc_base+0(FP), DI
	MOVQ w_base+24(FP), R12
	MOVQ bp_base+48(FP), DX
	MOVQ kc4+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldw+88(FP), R9
	MOVQ n+96(FP), R10
	SHLQ $2, R10             // acc row stride, bytes
	SHLQ $2, CX              // depth bytes per weight row

	LEAQ (R12)(R9*1), R13    // w1
	LEAQ (R13)(R9*1), R14    // w2
	LEAQ (R14)(R9*1), R15    // w3

	XORQ AX, AX              // output column index

vncol:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	XORQ  SI, SI             // depth byte offset into the w rows

vnk:
	VMOVDQU (DX), Y8         // depth block d:   8 columns x 4 u8
	VMOVDQU 32(DX), Y9       // depth block d+1
	ADDQ    $64, DX
	VPDPBUSD.BCST (R12)(SI*1), Y8, Y0
	VPDPBUSD.BCST 4(R12)(SI*1), Y9, Y4
	VPDPBUSD.BCST (R13)(SI*1), Y8, Y1
	VPDPBUSD.BCST 4(R13)(SI*1), Y9, Y5
	VPDPBUSD.BCST (R14)(SI*1), Y8, Y2
	VPDPBUSD.BCST 4(R14)(SI*1), Y9, Y6
	VPDPBUSD.BCST (R15)(SI*1), Y8, Y3
	VPDPBUSD.BCST 4(R15)(SI*1), Y9, Y7
	ADDQ $8, SI
	CMPQ SI, CX
	JLT  vnk

	VPADDD Y4, Y0, Y0
	VPADDD Y5, Y1, Y1
	VPADDD Y6, Y2, Y2
	VPADDD Y7, Y3, Y3
	LEAQ (DI)(AX*4), R9      // ldw is dead after the row-pointer setup
	VMOVDQU Y0, (R9)
	ADDQ R10, R9
	VMOVDQU Y1, (R9)
	ADDQ R10, R9
	VMOVDQU Y2, (R9)
	ADDQ R10, R9
	VMOVDQU Y3, (R9)

	ADDQ $8, AX
	CMPQ AX, R8
	JLT  vncol

	VZEROUPPER
	RET

// func quantTilesU8AVX2(dst []uint8, src []float32, kc4, tiles, lds, kPad int, inv float32)
//
// The quantize-and-interleave core of the u8 activation layout: for each of
// `tiles` 8-column tiles and each of kc4 four-row depth blocks it reads four
// rows x eight columns of src (rows lds floats apart) and emits the 32-byte
// tile block directly.  Per value: x = v*inv (rounded to float32), x plus
// copysign(0.5, x), truncate — exactly roundHalfAway — then the low byte of
// each int32 plus 128, row r of the block landing in byte r of its column's
// dword.  dst is pre-offset to the first depth block; tiles are kPad*8 bytes
// apart.
TEXT ·quantTilesU8AVX2(SB), NOSPLIT, $0-84
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ kc4+48(FP), CX
	MOVQ tiles+56(FP), R8
	MOVQ lds+64(FP), R9
	MOVQ kPad+72(FP), R11
	VBROADCASTSS inv+80(FP), Y15
	SHLQ $2, R9              // src row stride, bytes
	LEAQ (R9)(R9*2), R10     // three rows
	SHLQ $3, R11             // dst tile stride, bytes

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
	ADDQ $32, DX
	LEAQ (BX)(R9*4), BX
	DECQ AX
	JNE  qtblock

	ADDQ R11, DI
	ADDQ $32, SI
	DECQ R8
	JNE  qttile

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
