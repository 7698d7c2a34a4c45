// Fast-numerics microkernels (see gemm_nn_fast.go): fused-multiply-add
// register tiles over the packed-A panel layout, in FMA (256-bit) and
// AVX-512 (512-bit) variants, plus the multi-chain dot kernels behind
// MatVecFastParallel.
//
// Unlike gemm_nn_amd64.s these kernels deliberately break the bit-exact
// contract: VFMADD231PS keeps the product unrounded before the add, and the
// dot kernels split the reduction across independent accumulator chains.
// Callers opt in via the fast tier and validate with tolerance bounds.

#include "textflag.h"

// func gemmNNFMAKernel(dst, ap, b []float32, kc, nc, ldd, ldb int)
//
// 4x16 tile: dst[r][j] += sum_l ap[l*4+r]*b[l][j] for r in [0,4),
// j in [0,nc), l in [0,kc).  dst rows are ldd floats apart, b rows ldb
// floats apart (separate strides so a packed panel with its own stride can
// accumulate straight into a strided output block); ap is the
// depth-interleaved packed panel (4 consecutive floats per depth step).
// nc must be a positive multiple of 16; kc positive.  Eight YMM accumulator
// chains (two per row) hide the FMA latency.  Only the slice base pointers
// are used; callers pre-offset them.
TEXT ·gemmNNFMAKernel(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ap_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ kc+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldd+88(FP), R12
	MOVQ ldb+96(FP), R9
	SHLQ $2, R12             // dst row stride in bytes
	SHLQ $2, R9              // b row stride in bytes

	XORQ AX, AX              // column byte offset

fmacol:
	// Load the 4x16 accumulator block from dst (bias-seeded partial sums).
	LEAQ (DI)(AX*1), DX
	VMOVUPS (DX), Y0
	VMOVUPS 32(DX), Y1
	ADDQ R12, DX
	VMOVUPS (DX), Y2
	VMOVUPS 32(DX), Y3
	ADDQ R12, DX
	VMOVUPS (DX), Y4
	VMOVUPS 32(DX), Y5
	ADDQ R12, DX
	VMOVUPS (DX), Y6
	VMOVUPS 32(DX), Y7

	LEAQ (BX)(AX*1), DX      // b walking pointer for this column block
	MOVQ SI, R10             // packed-a walking pointer
	MOVQ CX, R11             // depth counter

fmak:
	VMOVUPS      (DX), Y8
	VMOVUPS      32(DX), Y9
	VBROADCASTSS (R10), Y10
	VFMADD231PS  Y8, Y10, Y0
	VFMADD231PS  Y9, Y10, Y1
	VBROADCASTSS 4(R10), Y11
	VFMADD231PS  Y8, Y11, Y2
	VFMADD231PS  Y9, Y11, Y3
	VBROADCASTSS 8(R10), Y12
	VFMADD231PS  Y8, Y12, Y4
	VFMADD231PS  Y9, Y12, Y5
	VBROADCASTSS 12(R10), Y13
	VFMADD231PS  Y8, Y13, Y6
	VFMADD231PS  Y9, Y13, Y7
	ADDQ $16, R10
	ADDQ R9, DX              // next b row
	DECQ R11
	JNE  fmak

	// Store the accumulator block back to dst.
	LEAQ (DI)(AX*1), DX
	VMOVUPS Y0, (DX)
	VMOVUPS Y1, 32(DX)
	ADDQ R12, DX
	VMOVUPS Y2, (DX)
	VMOVUPS Y3, 32(DX)
	ADDQ R12, DX
	VMOVUPS Y4, (DX)
	VMOVUPS Y5, 32(DX)
	ADDQ R12, DX
	VMOVUPS Y6, (DX)
	VMOVUPS Y7, 32(DX)

	ADDQ $64, AX             // next 16-column block
	SUBQ $16, R8
	JNE  fmacol

	VZEROUPPER
	RET

// func gemmNNAVX512Kernel(dst, ap, b []float32, kc, nc, ldd, ldb int)
//
// 4x32 tile: the AVX-512 widening of gemmNNFMAKernel with eight ZMM
// accumulator chains.  nc must be a positive multiple of 32.
TEXT ·gemmNNAVX512Kernel(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ ap_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ kc+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldd+88(FP), R12
	MOVQ ldb+96(FP), R9
	SHLQ $2, R12             // dst row stride in bytes
	SHLQ $2, R9              // b row stride in bytes

	XORQ AX, AX              // column byte offset

zcol:
	LEAQ (DI)(AX*1), DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	ADDQ R12, DX
	VMOVUPS (DX), Z2
	VMOVUPS 64(DX), Z3
	ADDQ R12, DX
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	ADDQ R12, DX
	VMOVUPS (DX), Z6
	VMOVUPS 64(DX), Z7

	LEAQ (BX)(AX*1), DX      // b walking pointer for this column block
	MOVQ SI, R10             // packed-a walking pointer
	MOVQ CX, R11             // depth counter

zk:
	VMOVUPS      (DX), Z8
	VMOVUPS      64(DX), Z9
	VBROADCASTSS (R10), Z10
	VFMADD231PS  Z8, Z10, Z0
	VFMADD231PS  Z9, Z10, Z1
	VBROADCASTSS 4(R10), Z11
	VFMADD231PS  Z8, Z11, Z2
	VFMADD231PS  Z9, Z11, Z3
	VBROADCASTSS 8(R10), Z12
	VFMADD231PS  Z8, Z12, Z4
	VFMADD231PS  Z9, Z12, Z5
	VBROADCASTSS 12(R10), Z13
	VFMADD231PS  Z8, Z13, Z6
	VFMADD231PS  Z9, Z13, Z7
	ADDQ $16, R10
	ADDQ R9, DX              // next b row
	DECQ R11
	JNE  zk

	LEAQ (DI)(AX*1), DX
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ R12, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ R12, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ R12, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)

	ADDQ $128, AX            // next 32-column block
	SUBQ $32, R8
	JNE  zcol

	VZEROUPPER
	RET

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
