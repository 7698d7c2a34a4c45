// AVX2 and AVX-512 microkernels for the reference GEMM (see gemm_nn.go).
//
// Bit-exactness: each dst element owns one accumulator lane; every depth
// step performs VMULPS followed by VADDPS — two separately rounded IEEE-754
// single-precision operations, exactly like the scalar reference — never a
// fused multiply-add.  Lanes never interact, so the result is bit-identical
// to the scalar loop for any blocking and any vector width.

#include "textflag.h"

// func gemmNNKernel(dst, a, b []float32, kc, nc, ldd, ldb, lda int)
//
// Computes dst[r][j] += sum_l a[r][l]*b[l][j] for r in [0,4), j in [0,nc),
// l in [0,kc).  dst rows are ldd floats apart, b rows ldb floats apart (a
// compact convolution panel accumulates into a strided NCHW output block)
// and a rows lda floats apart.  nc must be a positive multiple of 8; kc
// positive.  Only the slice base pointers are used; callers pre-offset them.
TEXT ·gemmNNKernel(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ kc+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldb+96(FP), R9
	MOVQ lda+104(FP), R10
	SHLQ $2, R9              // b row stride in bytes
	SHLQ $2, R10             // a row stride in bytes

	// a row pointers (advance via the shared l offset in SI below).
	MOVQ SI, R12             // a0
	LEAQ (R12)(R10*1), R13   // a1
	LEAQ (R13)(R10*1), R14   // a2
	LEAQ (R14)(R10*1), R15   // a3

	MOVQ ldd+88(FP), R10
	SHLQ $2, R10             // dst row stride in bytes

	XORQ AX, AX              // column byte offset

colloop:
	// Load the 4x8 accumulator block from dst (bias-seeded partial sums).
	LEAQ (DI)(AX*1), DX
	VMOVUPS (DX), Y0
	ADDQ R10, DX
	VMOVUPS (DX), Y1
	ADDQ R10, DX
	VMOVUPS (DX), Y2
	ADDQ R10, DX
	VMOVUPS (DX), Y3

	LEAQ (BX)(AX*1), DX      // b walking pointer for this column block
	XORQ SI, SI              // depth byte offset into the a rows
	MOVQ CX, R11             // depth counter

kloop:
	VBROADCASTSS (R12)(SI*1), Y4
	VBROADCASTSS (R13)(SI*1), Y5
	VBROADCASTSS (R14)(SI*1), Y6
	VBROADCASTSS (R15)(SI*1), Y7
	VMOVUPS      (DX), Y8
	VMULPS       Y8, Y4, Y4
	VADDPS       Y4, Y0, Y0
	VMULPS       Y8, Y5, Y5
	VADDPS       Y5, Y1, Y1
	VMULPS       Y8, Y6, Y6
	VADDPS       Y6, Y2, Y2
	VMULPS       Y8, Y7, Y7
	VADDPS       Y7, Y3, Y3
	ADDQ $4, SI
	ADDQ R9, DX              // next b row
	DECQ R11
	JNE  kloop

	// Store the accumulator block back to dst.
	LEAQ (DI)(AX*1), DX
	VMOVUPS Y0, (DX)
	ADDQ R10, DX
	VMOVUPS Y1, (DX)
	ADDQ R10, DX
	VMOVUPS Y2, (DX)
	ADDQ R10, DX
	VMOVUPS Y3, (DX)

	ADDQ $32, AX             // next 8-column block
	SUBQ $8, R8
	JNE  colloop

	VZEROUPPER
	RET

// func gemmNNKernel32(dst, a, b []float32, kc, nc, ldd, ldb, lda int)
//
// The AVX-512 widening of gemmNNKernel: a 4x32 tile held in eight ZMM
// accumulators, two per row, with the same VMULPS + VADDPS pair per lane and
// depth step.  nc must be a positive multiple of 32; kc positive.
TEXT ·gemmNNKernel32(SB), NOSPLIT, $0-112
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ kc+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldb+96(FP), R9
	MOVQ lda+104(FP), R10
	SHLQ $2, R9              // b row stride in bytes
	SHLQ $2, R10             // a row stride in bytes

	MOVQ SI, R12             // a0
	LEAQ (R12)(R10*1), R13   // a1
	LEAQ (R13)(R10*1), R14   // a2
	LEAQ (R14)(R10*1), R15   // a3

	MOVQ ldd+88(FP), R10
	SHLQ $2, R10             // dst row stride in bytes

	XORQ AX, AX              // column byte offset

zcolloop:
	// Load the 4x32 accumulator block from dst (bias-seeded partial sums).
	LEAQ (DI)(AX*1), DX
	VMOVUPS (DX), Z0
	VMOVUPS 64(DX), Z1
	ADDQ R10, DX
	VMOVUPS (DX), Z2
	VMOVUPS 64(DX), Z3
	ADDQ R10, DX
	VMOVUPS (DX), Z4
	VMOVUPS 64(DX), Z5
	ADDQ R10, DX
	VMOVUPS (DX), Z6
	VMOVUPS 64(DX), Z7

	LEAQ (BX)(AX*1), DX      // b walking pointer for this column block
	XORQ SI, SI              // depth byte offset into the a rows
	MOVQ CX, R11             // depth counter

zkloop:
	VMOVUPS      (DX), Z8
	VMOVUPS      64(DX), Z9
	VBROADCASTSS (R12)(SI*1), Z10
	VBROADCASTSS (R13)(SI*1), Z11
	VMULPS       Z8, Z10, Z12
	VMULPS       Z9, Z10, Z13
	VMULPS       Z8, Z11, Z14
	VMULPS       Z9, Z11, Z15
	VADDPS       Z12, Z0, Z0
	VADDPS       Z13, Z1, Z1
	VADDPS       Z14, Z2, Z2
	VADDPS       Z15, Z3, Z3
	VBROADCASTSS (R14)(SI*1), Z10
	VBROADCASTSS (R15)(SI*1), Z11
	VMULPS       Z8, Z10, Z16
	VMULPS       Z9, Z10, Z17
	VMULPS       Z8, Z11, Z18
	VMULPS       Z9, Z11, Z19
	VADDPS       Z16, Z4, Z4
	VADDPS       Z17, Z5, Z5
	VADDPS       Z18, Z6, Z6
	VADDPS       Z19, Z7, Z7
	ADDQ $4, SI
	ADDQ R9, DX              // next b row
	DECQ R11
	JNE  zkloop

	// Store the accumulator block back to dst.
	LEAQ (DI)(AX*1), DX
	VMOVUPS Z0, (DX)
	VMOVUPS Z1, 64(DX)
	ADDQ R10, DX
	VMOVUPS Z2, (DX)
	VMOVUPS Z3, 64(DX)
	ADDQ R10, DX
	VMOVUPS Z4, (DX)
	VMOVUPS Z5, 64(DX)
	ADDQ R10, DX
	VMOVUPS Z6, (DX)
	VMOVUPS Z7, 64(DX)

	ADDQ $128, AX            // next 32-column block
	SUBQ $32, R8
	JNE  zcolloop

	VZEROUPPER
	RET

// func gemmNNKernel1(dst, a, b []float32, kc, nc, ldb int)
//
// The single-row tile of gemmNNKernel: dst[j] += sum_l a[l]*b[l][j] for j in
// [0,nc), l in [0,kc), b rows ldb floats apart.  Same instruction pair per
// depth step, so the same bits.
TEXT ·gemmNNKernel1(SB), NOSPLIT, $0-96
	MOVQ dst_base+0(FP), DI
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), BX
	MOVQ kc+72(FP), CX
	MOVQ nc+80(FP), R8
	MOVQ ldb+88(FP), R9
	SHLQ $2, R9              // b row stride in bytes

colloop1:
	VMOVUPS (DI), Y0
	MOVQ BX, DX              // b walking pointer for this column block
	XORQ AX, AX              // depth byte offset into the a row
	MOVQ CX, R11             // depth counter

kloop1:
	VBROADCASTSS (SI)(AX*1), Y4
	VMULPS       (DX), Y4, Y4
	VADDPS       Y4, Y0, Y0
	ADDQ $4, AX
	ADDQ R9, DX              // next b row
	DECQ R11
	JNE  kloop1

	VMOVUPS Y0, (DI)
	ADDQ $32, DI             // next 8-column block
	ADDQ $32, BX
	SUBQ $8, R8
	JNE  colloop1

	VZEROUPPER
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
