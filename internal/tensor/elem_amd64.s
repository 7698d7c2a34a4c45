// AVX2 elementwise kernels (see elem.go): ReLU, the stride-2 max/add taps of
// pooling, and the LRN step (whole vectors only; unmasked).  Every other load
// and store is a VMASKMOVPS, which neither touches nor faults on a masked-off
// lane: all lanes on while more than a vector of outputs is left, then one
// last step with the lanes that remain, so no byte outside the slices is read
// or written.

#include "textflag.h"

// Sixteen 0xff bytes, then sixteen zeros: VPMOVSXBD of the eight bytes at
// offset 16-c is the mask of lanes [0, c) of sixteen; eight on, of lanes 8 up.
DATA elemLanes<>+0(SB)/8, $0xffffffffffffffff
DATA elemLanes<>+8(SB)/8, $0xffffffffffffffff
GLOBL elemLanes<>(SB), RODATA|NOPTR, $32

// STRIDE2 is the body of acc[i] = OP(src[2*i], acc[i]) over len(acc) >= 1
// outputs.  A whole step loads src[0:16], and runs only while a further
// output exists, which puts src[16] inside the slice; the last step, of c in
// 1..8 outputs (mask Y13), loads src[0 : 2c-1] (Y11, Y12).  VSHUFPS $0x88
// takes the even elements of each 128-bit lane pair and VPERMPD $0xD8 puts
// the halves in order: src[0], src[2], ... src[14].  OP's operands are (acc,
// tap, acc): acc is the second source in Intel order, the one VMAXPS returns
// unless tap > acc.
#define STRIDE2(OP) \
	MOVQ acc_base+0(FP), DI; \
	MOVQ acc_len+8(FP), CX; \
	MOVQ src_base+24(FP), SI; \
	LEAQ elemLanes<>(SB), BX; \
	VPCMPEQD Y11, Y11, Y11; \
	VMOVDQA Y11, Y12; \
	VMOVDQA Y11, Y13; \
	CMPQ CX, $8; \
	JLE  last; \
step: \
	VMASKMOVPS (SI), Y11, Y1; \
	VMASKMOVPS 32(SI), Y12, Y2; \
	VSHUFPS $0x88, Y2, Y1, Y1; \
	VPERMPD $0xD8, Y1, Y1; \
	VMASKMOVPS (DI), Y13, Y0; \
	OP      Y0, Y1, Y0; \
	VMASKMOVPS Y0, Y13, (DI); \
	ADDQ $64, SI; \
	ADDQ $32, DI; \
	SUBQ $8, CX; \
	JLE  done; \
	CMPQ CX, $8; \
	JGT  step; \
last: \
	NEGQ CX; \
	VPMOVSXBD 16(BX)(CX*1), Y13; \
	VPMOVSXBD 17(BX)(CX*2), Y11; \
	VPMOVSXBD 25(BX)(CX*2), Y12; \
	NEGQ CX; \
	JMP  step; \
done: \
	VZEROUPPER; \
	RET

// func reluAVX2(dst, src []float32)
//
// dst[i] = src[i] < 0 ? +0 : src[i].  VCMPPS LT_OQ is false for -0 and for
// NaN, as the scalar `v < 0` is, and VANDNPS keeps the bits of every lane the
// compare left clear.
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	LEAQ elemLanes<>(SB), BX
	VXORPS   Y15, Y15, Y15
	VPCMPEQD Y13, Y13, Y13
	CMPQ CX, $8
	JLT  relulast

relustep:
	VMASKMOVPS (SI), Y13, Y1
	VCMPPS  $0x11, Y15, Y1, Y2   // LT_OQ: src < 0
	VANDNPS Y1, Y2, Y1
	VMASKMOVPS Y1, Y13, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JLE  reludone
	CMPQ CX, $8
	JGE  relustep

relulast:
	NEGQ CX
	VPMOVSXBD 16(BX)(CX*1), Y13
	NEGQ CX
	JMP  relustep

reludone:
	VZEROUPPER
	RET

// func maxStride2AVX2(acc, src []float32)
//
// The maxAbsAVX2 idiom: with acc as VMAXPS's second source a NaN tap is
// skipped and an equal zero does not replace acc's, as `v > acc` decides.
TEXT ·maxStride2AVX2(SB), NOSPLIT, $0-48
	STRIDE2(VMAXPS)

// func addStride2AVX2(acc, src []float32)
//
// VADDPS, never FMA: one rounding per tap, as the scalar `acc += v`.
TEXT ·addStride2AVX2(SB), NOSPLIT, $0-48
	STRIDE2(VADDPS)

// func lrnStep75AVX(dst, src []float32, sums []float64, add, sub []float32, k, scale float64)
//
// LRNStep75 eight elements a step as two four-lane chains (the divider halves
// a 512-bit VSQRTPD/VDIVPD, so wider lanes buy nothing).  Products and sums
// are separate instructions, never an FMA, and dst is stored before add and
// sub are loaded: the scalar loop's roundings and order.
TEXT ·lrnStep75AVX(SB), NOSPLIT, $0-136
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	MOVQ sums_base+48(FP), BX
	MOVQ add_base+72(FP), R8
	MOVQ sub_base+96(FP), R9
	VBROADCASTSD k+120(FP), Y15
	VBROADCASTSD scale+128(FP), Y14
	XORQ AX, AX              // element index

lrn75:
	VMOVUPD    (BX)(AX*8), Y6
	VMOVUPD    32(BX)(AX*8), Y7
	VCVTPS2PD  (SI)(AX*4), Y0
	VCVTPS2PD  16(SI)(AX*4), Y3
	VMULPD     Y6, Y14, Y1
	VMULPD     Y7, Y14, Y4
	VADDPD     Y1, Y15, Y1   // d
	VADDPD     Y4, Y15, Y4
	VSQRTPD    Y1, Y2
	VSQRTPD    Y4, Y5
	VMULPD     Y2, Y1, Y2
	VMULPD     Y5, Y4, Y5
	VSQRTPD    Y2, Y2        // d^0.75
	VSQRTPD    Y5, Y5
	VDIVPD     Y2, Y0, Y0
	VDIVPD     Y5, Y3, Y3
	VCVTPD2PSY Y0, X0
	VCVTPD2PSY Y3, X3
	VMOVUPS    X0, (DI)(AX*4)
	VMOVUPS    X3, 16(DI)(AX*4)
	VCVTPS2PD  (R8)(AX*4), Y8
	VCVTPS2PD  16(R8)(AX*4), Y9
	VCVTPS2PD  (R9)(AX*4), Y10
	VCVTPS2PD  16(R9)(AX*4), Y11
	VMULPD     Y8, Y8, Y8
	VMULPD     Y9, Y9, Y9
	VMULPD     Y10, Y10, Y10
	VMULPD     Y11, Y11, Y11
	VADDPD     Y8, Y6, Y6
	VADDPD     Y9, Y7, Y7
	VSUBPD     Y10, Y6, Y6
	VSUBPD     Y11, Y7, Y7
	VMOVUPD    Y6, (BX)(AX*8)
	VMOVUPD    Y7, 32(BX)(AX*8)
	ADDQ $8, AX
	CMPQ AX, CX
	JLT  lrn75

	VZEROUPPER
	RET
