// The float GEMM's register tiles (see gemm_nn.go), the fast tier's mat-vec
// dots and the CPUID/XGETBV probes behind detectFastTier.
//
// Each tile width has one body: 4x32 in eight ZMM accumulators (the AVX-512
// rung) and 4x16 in eight YMM ones (the FMA rung, the AVX-512 rung's
// 16-column remainder, the staged tail on both).  A tile computes dst[r][j] +=
// sum_l A[r][l]*b[l][j] for r in [0,4), j in [0,nc), l in [0,kc), dst rows
// ldd floats apart, b rows ldb apart, and A[r][l] at a + r*lda + l*ldk
// floats: row-major weights are (lda, ldk) = (k, 1), PackA panels (1, 4),
// and an m%4 row (0, 1) with ldd 0, its four lanes alike.
// nc is a positive multiple of the width, kc positive; only the slice base
// pointers are used.  Each body is assembled twice, and the two symbols
// differ only in the accumulate step:
//   - MULADD (the reference tier): VMULPS then VADDPS, two separately
//     rounded operations like the scalar loop's, never fused.  Each lane
//     owns one element, so the bits equal the scalar reference's for any
//     blocking and width.
//   - FMADD (the fast tier): VFMADD231PS, which keeps the product unrounded.

#include "textflag.h"

#define MULADD(b, a, acc, t) VMULPS b, a, t; VADDPS t, acc, acc
#define FMADD(b, a, acc, t) VFMADD231PS b, a, acc

// TILE_ARGS loads the tiles' arguments: DI dst, BX b, R8 nc, R9 and R10 the
// b and dst row strides in bytes, R12-R15 the four A rows, CX the depth
// step in bytes, R11 the depth offset the depth loop ends at, AX the column
// offset.
#define TILE_ARGS \
	MOVQ dst_base+0(FP), DI; \
	MOVQ a_base+24(FP), R12; \
	MOVQ b_base+48(FP), BX; \
	MOVQ kc+72(FP), R11; \
	MOVQ nc+80(FP), R8; \
	MOVQ ldd+88(FP), R10; \
	MOVQ ldb+96(FP), R9; \
	MOVQ lda+104(FP), AX; \
	MOVQ ldk+112(FP), CX; \
	SHLQ $2, R10; \
	SHLQ $2, R9; \
	SHLQ $2, AX; \
	SHLQ $2, CX; \
	IMULQ CX, R11; \
	LEAQ (R12)(AX*1), R13; \
	LEAQ (R13)(AX*1), R14; \
	LEAQ (R14)(AX*1), R15; \
	XORQ AX, AX

// TILE32 is the 4x32 body: two ZMM accumulators per row.
#define TILE32(ACC) \
	TILE_ARGS; \
col: \
	LEAQ (DI)(AX*1), DX; \
	VMOVUPS (DX), Z0; VMOVUPS 64(DX), Z1; ADDQ R10, DX; \
	VMOVUPS (DX), Z2; VMOVUPS 64(DX), Z3; ADDQ R10, DX; \
	VMOVUPS (DX), Z4; VMOVUPS 64(DX), Z5; ADDQ R10, DX; \
	VMOVUPS (DX), Z6; VMOVUPS 64(DX), Z7; \
	LEAQ (BX)(AX*1), DX; \
	XORQ SI, SI; \
depth: \
	VMOVUPS (DX), Z8; \
	VMOVUPS 64(DX), Z9; \
	VBROADCASTSS (R12)(SI*1), Z10; \
	VBROADCASTSS (R13)(SI*1), Z11; \
	ACC(Z8, Z10, Z0, Z12); ACC(Z9, Z10, Z1, Z13); \
	ACC(Z8, Z11, Z2, Z14); ACC(Z9, Z11, Z3, Z15); \
	VBROADCASTSS (R14)(SI*1), Z10; \
	VBROADCASTSS (R15)(SI*1), Z11; \
	ACC(Z8, Z10, Z4, Z16); ACC(Z9, Z10, Z5, Z17); \
	ACC(Z8, Z11, Z6, Z18); ACC(Z9, Z11, Z7, Z19); \
	ADDQ CX, SI; \
	ADDQ R9, DX; \
	CMPQ SI, R11; \
	JNE depth; \
	LEAQ (DI)(AX*1), DX; \
	VMOVUPS Z0, (DX); VMOVUPS Z1, 64(DX); ADDQ R10, DX; \
	VMOVUPS Z2, (DX); VMOVUPS Z3, 64(DX); ADDQ R10, DX; \
	VMOVUPS Z4, (DX); VMOVUPS Z5, 64(DX); ADDQ R10, DX; \
	VMOVUPS Z6, (DX); VMOVUPS Z7, 64(DX); \
	ADDQ $128, AX; \
	SUBQ $32, R8; \
	JNE col; \
	VZEROUPPER; \
	RET

// TILE16 is the 4x16 body: two YMM accumulators per row, in the sixteen
// registers an AVX2 host has.
#define TILE16(ACC) \
	TILE_ARGS; \
col: \
	LEAQ (DI)(AX*1), DX; \
	VMOVUPS (DX), Y0; VMOVUPS 32(DX), Y1; ADDQ R10, DX; \
	VMOVUPS (DX), Y2; VMOVUPS 32(DX), Y3; ADDQ R10, DX; \
	VMOVUPS (DX), Y4; VMOVUPS 32(DX), Y5; ADDQ R10, DX; \
	VMOVUPS (DX), Y6; VMOVUPS 32(DX), Y7; \
	LEAQ (BX)(AX*1), DX; \
	XORQ SI, SI; \
depth: \
	VMOVUPS (DX), Y8; \
	VMOVUPS 32(DX), Y9; \
	VBROADCASTSS (R12)(SI*1), Y10; \
	VBROADCASTSS (R13)(SI*1), Y11; \
	ACC(Y8, Y10, Y0, Y12); ACC(Y9, Y10, Y1, Y13); \
	ACC(Y8, Y11, Y2, Y14); ACC(Y9, Y11, Y3, Y15); \
	VBROADCASTSS (R14)(SI*1), Y10; \
	VBROADCASTSS (R15)(SI*1), Y11; \
	ACC(Y8, Y10, Y4, Y12); ACC(Y9, Y10, Y5, Y13); \
	ACC(Y8, Y11, Y6, Y14); ACC(Y9, Y11, Y7, Y15); \
	ADDQ CX, SI; \
	ADDQ R9, DX; \
	CMPQ SI, R11; \
	JNE depth; \
	LEAQ (DI)(AX*1), DX; \
	VMOVUPS Y0, (DX); VMOVUPS Y1, 32(DX); ADDQ R10, DX; \
	VMOVUPS Y2, (DX); VMOVUPS Y3, 32(DX); ADDQ R10, DX; \
	VMOVUPS Y4, (DX); VMOVUPS Y5, 32(DX); ADDQ R10, DX; \
	VMOVUPS Y6, (DX); VMOVUPS Y7, 32(DX); \
	ADDQ $64, AX; \
	SUBQ $16, R8; \
	JNE col; \
	VZEROUPPER; \
	RET

// func gemmNNTile32(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)
TEXT ·gemmNNTile32(SB), NOSPLIT, $0-120
	TILE32(MULADD)

// func gemmNNTile32FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)
TEXT ·gemmNNTile32FMA(SB), NOSPLIT, $0-120
	TILE32(FMADD)

// func gemmNNTile16(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)
TEXT ·gemmNNTile16(SB), NOSPLIT, $0-120
	TILE16(MULADD)

// func gemmNNTile16FMA(dst, a, b []float32, kc, nc, ldd, ldb, lda, ldk int)
TEXT ·gemmNNTile16FMA(SB), NOSPLIT, $0-120
	TILE16(FMADD)

// func dotFMA(a, b []float32, n int) float32
//
// Four independent 8-lane FMA accumulator chains; n must be a positive
// multiple of 32.  The tree reduction at the end differs from the scalar
// summation order by design.
TEXT ·dotFMA(SB), NOSPLIT, $0-60
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ n+48(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dotloop:
	VMOVUPS     (SI), Y4
	VMOVUPS     32(SI), Y5
	VMOVUPS     64(SI), Y6
	VMOVUPS     96(SI), Y7
	VFMADD231PS (DX), Y4, Y0
	VFMADD231PS 32(DX), Y5, Y1
	VFMADD231PS 64(DX), Y6, Y2
	VFMADD231PS 96(DX), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DX
	SUBQ $32, CX
	JNE  dotloop

	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+56(FP)
	RET

// func dotAVX512(a, b []float32, n int) float32
//
// Four independent 16-lane ZMM chains; n must be a positive multiple of 64.
TEXT ·dotAVX512(SB), NOSPLIT, $0-60
	MOVQ a_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ n+48(FP), CX
	VXORPS X0, X0, X0
	VXORPS X1, X1, X1
	VXORPS X2, X2, X2
	VXORPS X3, X3, X3

zdotloop:
	VMOVUPS     (SI), Z4
	VMOVUPS     64(SI), Z5
	VMOVUPS     128(SI), Z6
	VMOVUPS     192(SI), Z7
	VFMADD231PS (DX), Z4, Z0
	VFMADD231PS 64(DX), Z5, Z1
	VFMADD231PS 128(DX), Z6, Z2
	VFMADD231PS 192(DX), Z7, Z3
	ADDQ $256, SI
	ADDQ $256, DX
	SUBQ $64, CX
	JNE  zdotloop

	VADDPS Z1, Z0, Z0
	VADDPS Z3, Z2, Z2
	VADDPS Z2, Z0, Z0
	VEXTRACTF64X4 $1, Z0, Y1
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+56(FP)
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
