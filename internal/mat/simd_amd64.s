#include "textflag.h"

// AVX2 vector kernels. Arithmetic is VMULPD followed by VADDPD (and
// the scalar VMULSD/VADDSD in tails) — never a fused multiply-add —
// so every element is rounded exactly as in the portable Go loops of
// simd.go. Callers guarantee the operand lengths; nothing here checks
// a bound.

// HSUM leaves ((s0+s1)+s2)+s3 of the four lanes of Yacc in lane 0 of
// Xres, the order dotGo sums its accumulators in. Xacc is the low
// half of Yacc; Xhi and Xtmp are scratch.
#define HSUM(Yacc, Xacc, Xhi, Xtmp, Xres) \
	VEXTRACTF128 $1, Yacc, Xhi;    \
	VUNPCKHPD    Xacc, Xacc, Xtmp; \
	VADDSD       Xtmp, Xacc, Xres; \
	VADDSD       Xhi, Xres, Xres;  \
	VUNPCKHPD    Xhi, Xhi, Xhi;    \
	VADDSD       Xhi, Xres, Xres

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyAVX2(dst, src []float64, alpha float64)
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD alpha+48(FP), Y0

axpy16:
	CMPQ    CX, $16
	JLT     axpy4
	VMULPD  (SI), Y0, Y1
	VMULPD  32(SI), Y0, Y2
	VMULPD  64(SI), Y0, Y3
	VMULPD  96(SI), Y0, Y4
	VADDPD  (DI), Y1, Y1
	VADDPD  32(DI), Y2, Y2
	VADDPD  64(DI), Y3, Y3
	VADDPD  96(DI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     axpy16

axpy4:
	CMPQ    CX, $4
	JLT     axpy1
	VMULPD  (SI), Y0, Y1
	VADDPD  (DI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     axpy4

axpy1:
	TESTQ  CX, CX
	JZ     axpyDone
	VMULSD (SI), X0, X1
	VADDSD (DI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    axpy1

axpyDone:
	VZEROUPPER
	RET

// func addAVX2(dst, src []float64)
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI

add16:
	CMPQ    CX, $16
	JLT     add4
	VMOVUPD (DI), Y1
	VMOVUPD 32(DI), Y2
	VMOVUPD 64(DI), Y3
	VMOVUPD 96(DI), Y4
	VADDPD  (SI), Y1, Y1
	VADDPD  32(SI), Y2, Y2
	VADDPD  64(SI), Y3, Y3
	VADDPD  96(SI), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     add16

add4:
	CMPQ    CX, $4
	JLT     add1
	VMOVUPD (DI), Y1
	VADDPD  (SI), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     add4

add1:
	TESTQ  CX, CX
	JZ     addDone
	VMOVSD (DI), X1
	VADDSD (SI), X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    add1

addDone:
	VZEROUPPER
	RET

// func scaleAVX2(dst []float64, alpha float64)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	VBROADCASTSD alpha+24(FP), Y0

scale16:
	CMPQ    CX, $16
	JLT     scale4
	VMULPD  (DI), Y0, Y1
	VMULPD  32(DI), Y0, Y2
	VMULPD  64(DI), Y0, Y3
	VMULPD  96(DI), Y0, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     scale16

scale4:
	CMPQ    CX, $4
	JLT     scale1
	VMULPD  (DI), Y0, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     scale4

scale1:
	TESTQ  CX, CX
	JZ     scaleDone
	VMULSD (DI), X0, X1
	VMOVSD X1, (DI)
	ADDQ   $8, DI
	DECQ   CX
	JMP    scale1

scaleDone:
	VZEROUPPER
	RET

// func dotAVX2(x, y []float64) float64
//
// Y0 holds the four accumulator lanes s0..s3 of dotGo. The body is
// unrolled four vectors deep: the multiplies are independent, the adds
// chain through Y0 in element order.
TEXT ·dotAVX2(SB), NOSPLIT, $0-56
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   y_base+24(FP), DI
	VXORPD Y0, Y0, Y0

dot16:
	CMPQ    CX, $16
	JLT     dot4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VMULPD  (DI), Y1, Y1
	VMULPD  32(DI), Y2, Y2
	VMULPD  64(DI), Y3, Y3
	VMULPD  96(DI), Y4, Y4
	VADDPD  Y1, Y0, Y0
	VADDPD  Y2, Y0, Y0
	VADDPD  Y3, Y0, Y0
	VADDPD  Y4, Y0, Y0
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     dot16

dot4:
	CMPQ    CX, $4
	JLT     dotReduce
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     dot4

dotReduce:
	HSUM(Y0, X0, X1, X2, X3)

dot1:
	TESTQ  CX, CX
	JZ     dotDone
	VMOVSD (SI), X1
	VMULSD (DI), X1, X1
	VADDSD X1, X3, X3
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    dot1

dotDone:
	VMOVSD X3, ret+48(FP)
	VZEROUPPER
	RET

// func dot4AVX2(out, x, y []float64, stride int)
//
// Four dotAVX2s sharing every load of x: Y0..Y3 are the accumulators
// of the four rows R8..R11 of y, AX indexes elements.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-80
	MOVQ   out_base+0(FP), DI
	MOVQ   x_base+24(FP), SI
	MOVQ   x_len+32(FP), CX
	MOVQ   y_base+48(FP), R8
	MOVQ   stride+72(FP), DX
	SHLQ   $3, DX
	LEAQ   (R8)(DX*1), R9
	LEAQ   (R9)(DX*1), R10
	LEAQ   (R10)(DX*1), R11
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX
	MOVQ   CX, DX
	ANDQ   $-4, DX

dot4Body:
	CMPQ    AX, DX
	JGE     dot4Reduce
	VMOVUPD (SI)(AX*8), Y4
	VMULPD  (R8)(AX*8), Y4, Y5
	VMULPD  (R9)(AX*8), Y4, Y6
	VMULPD  (R10)(AX*8), Y4, Y7
	VMULPD  (R11)(AX*8), Y4, Y8
	VADDPD  Y5, Y0, Y0
	VADDPD  Y6, Y1, Y1
	VADDPD  Y7, Y2, Y2
	VADDPD  Y8, Y3, Y3
	ADDQ    $4, AX
	JMP     dot4Body

dot4Reduce:
	HSUM(Y0, X0, X4, X5, X10)
	HSUM(Y1, X1, X4, X5, X11)
	HSUM(Y2, X2, X4, X5, X12)
	HSUM(Y3, X3, X4, X5, X13)

dot4Tail:
	CMPQ   AX, CX
	JGE    dot4Done
	VMOVSD (SI)(AX*8), X4
	VMULSD (R8)(AX*8), X4, X5
	VMULSD (R9)(AX*8), X4, X6
	VMULSD (R10)(AX*8), X4, X7
	VMULSD (R11)(AX*8), X4, X8
	VADDSD X5, X10, X10
	VADDSD X6, X11, X11
	VADDSD X7, X12, X12
	VADDSD X8, X13, X13
	INCQ   AX
	JMP    dot4Tail

dot4Done:
	VMOVSD X10, (DI)
	VMOVSD X11, 8(DI)
	VMOVSD X12, 16(DI)
	VMOVSD X13, 24(DI)
	VZEROUPPER
	RET
