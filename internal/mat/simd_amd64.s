#include "textflag.h"

// Vector kernels at two levels, AVX2 and AVX-512, picked once from
// CPUID (simd_amd64.go). Arithmetic is VMULPD followed by VADDPD (and
// the scalar VMULSD/VADDSD in tails) — never a fused multiply-add, but
// in expAVX2, which reproduces math.Exp's own fused steps — so
// every element is rounded exactly as in the portable Go loops of
// simd.go, at either width; adamAVX2 adds VSUBPD, VDIVPD and VSQRTPD,
// which IEEE 754 rounds correctly as the Go loop's operations are. A wider register changes which elements
// share an instruction, never the operations an element sees or their
// order: the ZMM list walk and the ZMM kernels on rows of 8 give each
// element of dst its own lane as the YMM ones do, and dot16AVX512 keeps dotGo's four accumulator
// lanes per inner product — its packing puts two rows' four lanes in
// one register — and reduces them in dotGo's order. adc2AVX2 and
// dot16AVX512's reduction alone move elements between lanes, and
// moving a value never changes its bits. Masked AVX-512 loads and
// stores touch no element outside their mask. Callers guarantee the
// operand lengths; nothing here checks a bound. AVX-512 code uses
// Z0..Z15 only, which VZEROUPPER leaves clean, and nothing beyond
// AVX512F.

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

// func reluAVX2(dst, src []float64)
//
// x > 0 as an ordered, quiet compare gives all ones or all zeros per
// lane (zeros for a NaN); the AND keeps x or leaves +0.
TEXT ·reluAVX2(SB), NOSPLIT, $0-48
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	VXORPD Y0, Y0, Y0

relu16:
	CMPQ    CX, $16
	JLT     relu4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VCMPPD  $0x1e, Y0, Y1, Y5
	VCMPPD  $0x1e, Y0, Y2, Y6
	VCMPPD  $0x1e, Y0, Y3, Y7
	VCMPPD  $0x1e, Y0, Y4, Y8
	VANDPD  Y5, Y1, Y1
	VANDPD  Y6, Y2, Y2
	VANDPD  Y7, Y3, Y3
	VANDPD  Y8, Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     relu16

relu4:
	CMPQ    CX, $4
	JLT     relu1
	VMOVUPD (SI), Y1
	VCMPPD  $0x1e, Y0, Y1, Y5
	VANDPD  Y5, Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     relu4

relu1:
	TESTQ  CX, CX
	JZ     reluDone
	VMOVSD (SI), X1
	VCMPSD $0x1e, X0, X1, X5
	VANDPD X5, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    relu1

reluDone:
	VZEROUPPER
	RET

// func reluGateAVX2(dst, z, grad []float64)
//
// reluAVX2 with the compare on z and the AND on grad.
TEXT ·reluGateAVX2(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   z_base+24(FP), SI
	MOVQ   grad_base+48(FP), DX
	VXORPD Y0, Y0, Y0

gate16:
	CMPQ    CX, $16
	JLT     gate4
	VMOVUPD (SI), Y1
	VMOVUPD 32(SI), Y2
	VMOVUPD 64(SI), Y3
	VMOVUPD 96(SI), Y4
	VCMPPD  $0x1e, Y0, Y1, Y1
	VCMPPD  $0x1e, Y0, Y2, Y2
	VCMPPD  $0x1e, Y0, Y3, Y3
	VCMPPD  $0x1e, Y0, Y4, Y4
	VANDPD  (DX), Y1, Y1
	VANDPD  32(DX), Y2, Y2
	VANDPD  64(DX), Y3, Y3
	VANDPD  96(DX), Y4, Y4
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DX
	ADDQ    $128, DI
	SUBQ    $16, CX
	JMP     gate16

gate4:
	CMPQ    CX, $4
	JLT     gate1
	VMOVUPD (SI), Y1
	VCMPPD  $0x1e, Y0, Y1, Y1
	VANDPD  (DX), Y1, Y1
	VMOVUPD Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     gate4

gate1:
	TESTQ  CX, CX
	JZ     gateDone
	VMOVSD (SI), X1
	VMOVSD (DX), X2
	VCMPSD $0x1e, X0, X1, X1
	VANDPD X2, X1, X1
	VMOVSD X1, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DX
	ADDQ   $8, DI
	DECQ   CX
	JMP    gate1

gateDone:
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

// func adc2AVX2(row, cents []float64, q0, q1 float64)
//
// Four span-2 table entries a pass, read from the packed codebook where
// it lies: Y3 and Y4 hold the (c0, c1) pairs of centroids 0,1 and 2,3;
// the unpacks split them, within each 128-bit lane, into the c0s (Y5)
// and the c1s (Y6) of centroids 0,2,1,3. Each entry is summed as dotGo
// sums two elements — (+0 + q0*c0) + q1*c1, the +0 in Y2 — and VPERMPD
// (lanes 0,2,1,3) puts the four back in centroid order for one store.
TEXT ·adc2AVX2(SB), NOSPLIT, $0-64
	MOVQ         row_base+0(FP), DI
	MOVQ         row_len+8(FP), CX
	MOVQ         cents_base+24(FP), SI
	VBROADCASTSD q0+48(FP), Y0
	VBROADCASTSD q1+56(FP), Y1
	VXORPD       Y2, Y2, Y2

adc2Body:
	TESTQ     CX, CX
	JZ        adc2Done
	VMOVUPD   (SI), Y3
	VMOVUPD   32(SI), Y4
	VUNPCKLPD Y4, Y3, Y5
	VUNPCKHPD Y4, Y3, Y6
	VMULPD    Y0, Y5, Y5
	VADDPD    Y5, Y2, Y5
	VMULPD    Y1, Y6, Y6
	VADDPD    Y6, Y5, Y5
	VPERMPD   $0xd8, Y5, Y5
	VMOVUPD   Y5, (DI)
	ADDQ      $64, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	JMP       adc2Body

adc2Done:
	VZEROUPPER
	RET

// PQROW sets Rrow to codes+(ids[i]+1)*m, one past row ids[i]'s m
// codes, i = off/4: AX holds ids, SI codes, CX m.
#define PQROW(off, Rrow) \
	MOVL  off(AX), Rrow; \
	INCQ  Rrow;          \
	IMULQ CX, Rrow;      \
	ADDQ  SI, Rrow

// PQADD adds row Rrow's entry of the current subspace to Xacc: the
// code at Rrow+SI (SI runs -m..-1) picks one of the K entries at DI.
// AX is free by the time the loop runs.
#define PQADD(Rrow, Xacc) \
	MOVBLZX (Rrow)(SI*1), AX; \
	VADDSD  (DI)(AX*8), Xacc, Xacc

// func pqRowsAVX2(out *float64, ids *int32, codes []uint8, tab []float64, m, k, lanes int)
//
// lanes (2, 4 or 8) rows a call, one scalar chain each: lane i's
// accumulator starts from +0 and adds tab[s*k + code] for s = 0..m-1
// in that order — the Go loop's operations, so its bits — with the
// lanes' chains independent. Each subspace step moves DI on by k*8
// bytes (DX) and SI by one code. m = 0 leaves every lane +0.
TEXT ·pqRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ   ids+8(FP), AX
	MOVQ   codes_base+16(FP), SI
	MOVQ   tab_base+40(FP), DI
	MOVQ   m+64(FP), CX
	MOVQ   k+72(FP), DX
	SHLQ   $3, DX
	MOVQ   lanes+80(FP), BX
	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	PQROW(0, R8)
	PQROW(4, R9)
	CMPQ   BX, $4
	JLT    pq2
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3
	PQROW(8, R10)
	PQROW(12, R11)
	CMPQ   BX, $4
	JEQ    pq4
	VXORPD X4, X4, X4
	VXORPD X5, X5, X5
	VXORPD X6, X6, X6
	VXORPD X7, X7, X7
	PQROW(16, R12)
	PQROW(20, R13)
	PQROW(24, R14)
	PQROW(28, BX)
	MOVQ   CX, SI
	NEGQ   SI
	JZ     pq8Store

pq8Loop:
	PQADD(R8, X0)
	PQADD(R9, X1)
	PQADD(R10, X2)
	PQADD(R11, X3)
	PQADD(R12, X4)
	PQADD(R13, X5)
	PQADD(R14, X6)
	PQADD(BX, X7)
	ADDQ DX, DI
	INCQ SI
	JNZ  pq8Loop

pq8Store:
	MOVQ   out+0(FP), AX
	VMOVSD X4, 32(AX)
	VMOVSD X5, 40(AX)
	VMOVSD X6, 48(AX)
	VMOVSD X7, 56(AX)
	JMP    pq4Store

pq4:
	MOVQ CX, SI
	NEGQ SI
	JZ   pq4Store

pq4Loop:
	PQADD(R8, X0)
	PQADD(R9, X1)
	PQADD(R10, X2)
	PQADD(R11, X3)
	ADDQ DX, DI
	INCQ SI
	JNZ  pq4Loop

pq4Store:
	MOVQ   out+0(FP), AX
	VMOVSD X2, 16(AX)
	VMOVSD X3, 24(AX)
	JMP    pq2Store

pq2:
	MOVQ CX, SI
	NEGQ SI
	JZ   pq2Store

pq2Loop:
	PQADD(R8, X0)
	PQADD(R9, X1)
	ADDQ DX, DI
	INCQ SI
	JNZ  pq2Loop

pq2Store:
	MOVQ   out+0(FP), AX
	VMOVSD X0, (AX)
	VMOVSD X1, 8(AX)
	VZEROUPPER
	RET

// A term list is two parallel arrays, R9 the alphas and R8 the element
// offsets of their rows in src, R10 terms long. axpyRowsSIMD and
// axpyRowsAtSIMD compact one into their frames; gatherRowsSIMD is
// handed one by its caller.
//
// LISTROW sets DX to the start of the AX-th listed row of the current
// column panel (SI is src advanced to the panel) and Y8 to its alpha
// in every lane.
#define LISTROW \
	MOVQ         (R8)(AX*8), DX; \
	VBROADCASTSD (R9)(AX*8), Y8; \
	LEAQ         (SI)(DX*8), DX

// LISTNEXT closes a term loop: on to the next listed row, if any.
#define LISTNEXT(loop) \
	INCQ AX;      \
	CMPQ AX, R10; \
	JLT  loop

// func axpyRowsSIMD(dst, src []float64, stride int, alpha []float64, astride, count int, zmm bool)
//
// The count alphas, astride apart, are compacted into a list at 0(SP),
// the offsets of their rows at 512(SP), without a branch: every one is
// written, and the write position moves on only past an alpha whose
// bits other than the sign are not all zero. listWalk (listWalkZ when
// zmm) then adds the listed terms to dst as it stands (Y14 keeps every
// bit) and leaves the sums as they come (Y15 is 1, and x*1 is x).
//
// The 1 KB frame is more than a NOSPLIT function may have, so this one
// routine carries the assembler's stack check.
TEXT ·axpyRowsSIMD(SB), $1024-97
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  stride+48(FP), BX
	MOVQ  alpha_base+56(FP), R11
	MOVQ  astride+80(FP), R12
	MOVQ  count+88(FP), R13
	TESTQ R13, R13
	JLE   rowsDone
	SHLQ  $3, R12
	LEAQ  0(SP), R9
	LEAQ  512(SP), R8
	XORQ  R10, R10
	XORQ  DX, DX

rowsCompact:
	MOVQ  (R11), AX
	MOVQ  AX, (R9)(R10*8)
	MOVQ  DX, (R8)(R10*8)
	ADDQ  AX, AX          // shifts the sign out: zero for +0 and -0 only
	NEGQ  AX              // sets the carry unless AX is zero
	ADCQ  $0, R10
	ADDQ  R12, R11
	ADDQ  BX, DX
	DECQ  R13
	JNZ   rowsCompact
	TESTQ R10, R10
	JZ    rowsDone
	VPCMPEQD     Y14, Y14, Y14
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	CMPB         zmm+96(FP), $0
	JNE          rowsZ
	CALL         listWalk<>(SB)
	RET

rowsZ:
	CALL listWalkZ<>(SB)
	RET

rowsDone:
	VZEROUPPER
	RET

// func axpyRowsAtSIMD(dst, src []float64, stride int, alpha []float64, astride int, rows []int, limit int, zmm bool) (ok bool)
//
// axpyRowsSIMD with each term's row read from rows (R14) instead of
// counted: row r's alpha is at alpha + r*astride elements, its offset
// in src r*stride. A row not below limit — unsigned, so a negative one
// is not either — ends the call before the walk, with nothing written
// and ok false.
TEXT ·axpyRowsAtSIMD(SB), $1024-129
	MOVB  $0, ok+128(FP)
	MOVQ  dst_base+0(FP), DI
	MOVQ  dst_len+8(FP), CX
	MOVQ  src_base+24(FP), SI
	MOVQ  stride+48(FP), BX
	MOVQ  alpha_base+56(FP), R11
	MOVQ  astride+80(FP), R12
	MOVQ  rows_base+88(FP), R14
	MOVQ  rows_len+96(FP), R13
	TESTQ R13, R13
	JLE   rowsAtDone
	SHLQ  $3, R12
	LEAQ  0(SP), R9
	LEAQ  512(SP), R8
	XORQ  R10, R10

rowsAtCompact:
	MOVQ  (R14), DX
	CMPQ  DX, limit+112(FP)
	JAE   rowsAtDone
	MOVQ  DX, AX
	IMULQ R12, AX
	MOVQ  (R11)(AX*1), AX
	IMULQ BX, DX
	MOVQ  AX, (R9)(R10*8)
	MOVQ  DX, (R8)(R10*8)
	ADDQ  AX, AX          // shifts the sign out: zero for +0 and -0 only
	NEGQ  AX              // sets the carry unless AX is zero
	ADCQ  $0, R10
	ADDQ  $8, R14
	DECQ  R13
	JNZ   rowsAtCompact
	MOVB  $1, ok+128(FP)
	TESTQ R10, R10
	JZ    rowsAtDone
	VPCMPEQD     Y14, Y14, Y14
	MOVQ         $0x3ff0000000000000, AX
	VMOVQ        AX, X15
	VPBROADCASTQ X15, Y15
	CMPB         zmm+120(FP), $0
	JNE          rowsAtZ
	CALL         listWalk<>(SB)
	RET

rowsAtZ:
	CALL listWalkZ<>(SB)
	RET

rowsAtDone:
	VZEROUPPER
	RET

// ROW8 adds one term to one 8-wide row: the alpha at the given address,
// broadcast into Y10, times the row in slo:shi, each product ANDed with
// Y11 — all ones unless the alpha is zero — and added to the
// accumulators lo:hi. Y15 is +0 and Y12, Y13 are scratch.
#define ROW8(alpha, slo, shi, lo, hi) \
	VBROADCASTSD alpha, Y10;        \
	VCMPPD       $4, Y15, Y10, Y11; \
	VMULPD       slo, Y10, Y12;     \
	VMULPD       shi, Y10, Y13;     \
	VANDPD       Y11, Y12, Y12;     \
	VANDPD       Y11, Y13, Y13;     \
	VADDPD       lo, Y12, lo;       \
	VADDPD       hi, Y13, hi

// func axpyRows4x8AVX2(dst, src, alpha []float64, rs, count int)
//
// Four 8-wide rows of dst live in Y0..Y7 for the whole call. Each pass
// loads one 8-element row of src (SI, 64 bytes on per term) and adds it,
// times each row's own alpha, to all four: row r's alpha for term t is
// at R8 + r*rs*8 once R8 has moved on t*8 bytes, read where it lies.
// Two YMM add chains per row become eight per pass, and no list is
// built: on rows of 8 axpyRowsAVX2's compaction cost as much as the
// arithmetic it spared.
//
// A zero alpha is not skipped but masked, and that changes no bit. The
// compare (NEQ_UQ: true for a NaN) clears Y11 for an alpha of +0 or -0,
// so the AND turns that term's products into +0 whatever the src row
// holds — a NaN or an Inf under a zero alpha is never added in. Adding
// +0 is the identity on every value but -0, and no element of dst is
// -0: the caller's contract is that each one is a sum that started from
// +0 (mulRange clears dst), and such a sum never becomes -0: under
// round-to-nearest x + y is -0 only when x and y both are (an exact
// zero sum of anything else rounds to +0, and a non-zero one is never
// rounded to zero). A NaN in dst is one an add produced, already quiet,
// which +0 returns unchanged. So each element receives exactly the
// rounded product-then-add of axpyGo for each non-zero alpha, in term
// order, and nothing for the others.
TEXT ·axpyRows4x8AVX2(SB), NOSPLIT, $0-88
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    alpha_base+48(FP), R8
	MOVQ    rs+72(FP), R9
	MOVQ    count+80(FP), CX
	SHLQ    $3, R9
	LEAQ    (R9)(R9*2), R11
	VXORPD  Y15, Y15, Y15
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD 64(DI), Y2
	VMOVUPD 96(DI), Y3
	VMOVUPD 128(DI), Y4
	VMOVUPD 160(DI), Y5
	VMOVUPD 192(DI), Y6
	VMOVUPD 224(DI), Y7

quadTerm:
	VMOVUPD (SI), Y8
	VMOVUPD 32(SI), Y9
	ROW8((R8), Y8, Y9, Y0, Y1)
	ROW8((R8)(R9*1), Y8, Y9, Y2, Y3)
	ROW8((R8)(R9*2), Y8, Y9, Y4, Y5)
	ROW8((R8)(R11*1), Y8, Y9, Y6, Y7)
	ADDQ    $64, SI
	ADDQ    $8, R8
	DECQ    CX
	JNZ     quadTerm
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func accumAT8AVX2(acc, a, b []float64, k, astride, count int)
//
// axpyRows4x8AVX2 turned around for aᵀ·b: the four rows of b live in
// Y0..Y7 and the rows of acc stream past them. Each pass takes rows t..t+3
// of a (SI, R9 = astride*8 bytes apart; R11 is three of them) and
// walks c = 0..k-1 once: row c of acc is loaded into Y8:Y9, takes
// a[t][c]*b[t] through a[t+3][c]*b[t+3] in that order, and is stored.
// So a is read along its rows, four sequential streams, where a walk
// down its columns would take each term from a new cache line; acc, k
// rows of 64 bytes, stays in the L1 cache from one pass to the next.
// The rows of a left over after the last four go one at a time, by the
// same arithmetic on Y0:Y1.
// Each element of acc receives the rounded product-then-add of axpyGo
// for each non-zero of a in its column, in row order, and zeros are
// masked to +0 under axpyRows4x8AVX2's argument: the caller (MulAT,
// through accumATRange) starts every acc from +0.
TEXT ·accumAT8AVX2(SB), NOSPLIT, $0-96
	MOVQ   acc_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   k+72(FP), R12
	MOVQ   astride+80(FP), R9
	MOVQ   count+88(FP), CX
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R11
	VXORPD Y15, Y15, Y15
	CMPQ   CX, $4
	JB     atOne

atQuad:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD 64(DX), Y2
	VMOVUPD 96(DX), Y3
	VMOVUPD 128(DX), Y4
	VMOVUPD 160(DX), Y5
	VMOVUPD 192(DX), Y6
	VMOVUPD 224(DX), Y7
	MOVQ    DI, R8
	MOVQ    SI, R10
	MOVQ    R12, BX

atQuadCol:
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	ROW8((R10), Y0, Y1, Y8, Y9)
	ROW8((R10)(R9*1), Y2, Y3, Y8, Y9)
	ROW8((R10)(R9*2), Y4, Y5, Y8, Y9)
	ROW8((R10)(R11*1), Y6, Y7, Y8, Y9)
	VMOVUPD Y8, (R8)
	VMOVUPD Y9, 32(R8)
	ADDQ    $64, R8
	ADDQ    $8, R10
	DECQ    BX
	JNZ     atQuadCol
	LEAQ    (SI)(R9*4), SI
	ADDQ    $256, DX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     atQuad

atOne:
	TESTQ CX, CX
	JZ    atDone

atOneRow:
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	MOVQ    DI, R8
	MOVQ    SI, R10
	MOVQ    R12, BX

atOneCol:
	VMOVUPD (R8), Y8
	VMOVUPD 32(R8), Y9
	ROW8((R10), Y0, Y1, Y8, Y9)
	VMOVUPD Y8, (R8)
	VMOVUPD Y9, 32(R8)
	ADDQ    $64, R8
	ADDQ    $8, R10
	DECQ    BX
	JNZ     atOneCol
	ADDQ    R9, SI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     atOneRow

atDone:
	VZEROUPPER
	RET

// ROW8Z is ROW8 in one ZMM register: the alpha at the given address,
// broadcast into Z10, sets the mask k unless it is zero (the NEQ_UQ
// compare with Z15, +0, true for a NaN); the zero-masking multiply
// then leaves +0 in every lane of Z11 for a zero alpha, as ROW8's AND
// does, and the product s times the alpha otherwise, which is added
// to the accumulator acc.
#define ROW8Z(alpha, s, k, acc) \
	VBROADCASTSD alpha, Z10;        \
	VCMPPD       $4, Z15, Z10, k;   \
	VMULPD.Z     s, Z10, k, Z11;    \
	VADDPD       Z11, acc, acc

// func axpyRows4x8AVX512(dst, src, alpha []float64, rs, count int)
//
// axpyRows4x8AVX2 with each 8-wide row in one ZMM register: the four
// rows of dst live in Z0..Z3, each pass loads a row of src into Z8 and
// adds it to all four, times row r's own alpha at R8 + r*rs*8, under
// its own mask K1..K4. The arithmetic per element is ROW8's, and so is
// the argument that masking a zero alpha changes no bit.
TEXT ·axpyRows4x8AVX512(SB), NOSPLIT, $0-88
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    alpha_base+48(FP), R8
	MOVQ    rs+72(FP), R9
	MOVQ    count+80(FP), CX
	SHLQ    $3, R9
	LEAQ    (R9)(R9*2), R11
	VPXORQ  Z15, Z15, Z15
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3

zquadTerm:
	VMOVUPD (SI), Z8
	ROW8Z((R8), Z8, K1, Z0)
	ROW8Z((R8)(R9*1), Z8, K2, Z1)
	ROW8Z((R8)(R9*2), Z8, K3, Z2)
	ROW8Z((R8)(R11*1), Z8, K4, Z3)
	ADDQ    $64, SI
	ADDQ    $8, R8
	DECQ    CX
	JNZ     zquadTerm
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VZEROUPPER
	RET

// func accumAT8AVX512(acc, a, b []float64, k, astride, count int)
//
// accumAT8AVX2 with each 8-wide row in one ZMM register: four rows of
// b in Z0..Z3, row c of acc in Z8 taking a[t][c]*b[t] through
// a[t+3][c]*b[t+3] in that order, each under its own mask K1..K4; the
// rows of a left over after the last four go one at a time, on Z0.
// The arithmetic per element, and the masking argument, are
// accumAT8AVX2's.
TEXT ·accumAT8AVX512(SB), NOSPLIT, $0-96
	MOVQ   acc_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   k+72(FP), R12
	MOVQ   astride+80(FP), R9
	MOVQ   count+88(FP), CX
	SHLQ   $3, R9
	LEAQ   (R9)(R9*2), R11
	VPXORQ Z15, Z15, Z15
	CMPQ   CX, $4
	JB     zatOne

zatQuad:
	VMOVUPD (DX), Z0
	VMOVUPD 64(DX), Z1
	VMOVUPD 128(DX), Z2
	VMOVUPD 192(DX), Z3
	MOVQ    DI, R8
	MOVQ    SI, R10
	MOVQ    R12, BX

zatQuadCol:
	VMOVUPD (R8), Z8
	ROW8Z((R10), Z0, K1, Z8)
	ROW8Z((R10)(R9*1), Z1, K2, Z8)
	ROW8Z((R10)(R9*2), Z2, K3, Z8)
	ROW8Z((R10)(R11*1), Z3, K4, Z8)
	VMOVUPD Z8, (R8)
	ADDQ    $64, R8
	ADDQ    $8, R10
	DECQ    BX
	JNZ     zatQuadCol
	LEAQ    (SI)(R9*4), SI
	ADDQ    $256, DX
	SUBQ    $4, CX
	CMPQ    CX, $4
	JAE     zatQuad

zatOne:
	TESTQ CX, CX
	JZ    zatDone

zatOneRow:
	VMOVUPD (DX), Z0
	MOVQ    DI, R8
	MOVQ    SI, R10
	MOVQ    R12, BX

zatOneCol:
	VMOVUPD (R8), Z8
	ROW8Z((R10), Z0, K1, Z8)
	VMOVUPD Z8, (R8)
	ADDQ    $64, R8
	ADDQ    $8, R10
	DECQ    BX
	JNZ     zatOneCol
	ADDQ    R9, SI
	ADDQ    $64, DX
	DECQ    CX
	JNZ     zatOneRow

zatDone:
	VZEROUPPER
	RET

// ROW8PAIRZ is ROW8Z for two products that share an alpha: the alpha at
// the given address, broadcast into Z10 and compared with Z15 (+0) once,
// sets the mask k; the zero-masking multiplies leave sA and sB times it
// in Z11 and Z12 (+0 in every lane for a zero alpha), which are added to
// accA and accB. Each accumulator sees ROW8Z's arithmetic.
#define ROW8PAIRZ(alpha, sA, sB, k, accA, accB) \
	VBROADCASTSD alpha, Z10;        \
	VCMPPD       $4, Z15, Z10, k;   \
	VMULPD.Z     sA, Z10, k, Z11;   \
	VMULPD.Z     sB, Z10, k, Z12;   \
	VADDPD       Z11, accA, accA;   \
	VADDPD       Z12, accB, accB

// PAIRROWS points R10..R13 at the four rows of a, the element offsets
// in the [4]int at BX from a's base in AX.
#define PAIRROWS \
	MOVQ (BX), R10;         \
	LEAQ (AX)(R10*8), R10;  \
	MOVQ 8(BX), R11;        \
	LEAQ (AX)(R11*8), R11;  \
	MOVQ 16(BX), R12;       \
	LEAQ (AX)(R12*8), R12;  \
	MOVQ 24(BX), R13;       \
	LEAQ (AX)(R13*8), R13

// func axpyRows4x8PairAVX512(dstA, dstB, srcA, srcB, a []float64, offs *[4]int, count int)
//
// axpyRows4x8AVX512 for two products at once: the four rows of dstA
// live in Z0..Z3 and those of dstB in Z4..Z7, and each pass loads row t
// of srcA into Z8 and of srcB into Z9 and adds both, times each row's
// alpha a[offs[r]+t] (R10..R13, indexed by t in BX), to the row's two
// accumulators under one mask. The four rows of a are read where they
// lie, one element each per pass. The arithmetic per element, and the
// argument that masking a zero alpha changes no bit, are
// axpyRows4x8AVX2's.
TEXT ·axpyRows4x8PairAVX512(SB), NOSPLIT, $0-136
	MOVQ    dstA_base+0(FP), DI
	MOVQ    dstB_base+24(FP), DX
	MOVQ    srcA_base+48(FP), SI
	MOVQ    srcB_base+72(FP), R9
	MOVQ    a_base+96(FP), AX
	MOVQ    offs+120(FP), BX
	MOVQ    count+128(FP), CX
	PAIRROWS
	XORQ    BX, BX
	VPXORQ  Z15, Z15, Z15
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD 128(DI), Z2
	VMOVUPD 192(DI), Z3
	VMOVUPD (DX), Z4
	VMOVUPD 64(DX), Z5
	VMOVUPD 128(DX), Z6
	VMOVUPD 192(DX), Z7

zpairTerm:
	VMOVUPD (SI), Z8
	VMOVUPD (R9), Z9
	ROW8PAIRZ((R10)(BX*8), Z8, Z9, K1, Z0, Z4)
	ROW8PAIRZ((R11)(BX*8), Z8, Z9, K2, Z1, Z5)
	ROW8PAIRZ((R12)(BX*8), Z8, Z9, K3, Z2, Z6)
	ROW8PAIRZ((R13)(BX*8), Z8, Z9, K4, Z3, Z7)
	ADDQ    $64, SI
	ADDQ    $64, R9
	INCQ    BX
	CMPQ    BX, CX
	JB      zpairTerm
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, 128(DI)
	VMOVUPD Z3, 192(DI)
	VMOVUPD Z4, (DX)
	VMOVUPD Z5, 64(DX)
	VMOVUPD Z6, 128(DX)
	VMOVUPD Z7, 192(DX)
	VZEROUPPER
	RET

// func accumAT8PairAVX512(accA, accB, a []float64, offs *[4]int, bA, bB []float64, k int)
//
// accumAT8AVX512 for two products at once: the four rows of bA live in
// Z0..Z3 and those of bB in Z4..Z7, and each pass over c = 0..k-1 loads
// row c of accA into Z8 and of accB into Z9 and adds to both the terms
// of rows t = 0..3 in that order, a[offs[t]+c] (R10..R13, indexed by c
// in BX) times row t of bA and of bB, under one mask per term. The four
// rows of a are read along their length, where they lie. The arithmetic
// per element, and the masking argument, are accumAT8AVX2's.
TEXT ·accumAT8PairAVX512(SB), NOSPLIT, $0-136
	MOVQ    accA_base+0(FP), DI
	MOVQ    accB_base+24(FP), DX
	MOVQ    a_base+48(FP), AX
	MOVQ    offs+72(FP), BX
	MOVQ    bA_base+80(FP), SI
	MOVQ    bB_base+104(FP), R8
	MOVQ    k+128(FP), CX
	PAIRROWS
	XORQ    BX, BX
	VPXORQ  Z15, Z15, Z15
	VMOVUPD (SI), Z0
	VMOVUPD 64(SI), Z1
	VMOVUPD 128(SI), Z2
	VMOVUPD 192(SI), Z3
	VMOVUPD (R8), Z4
	VMOVUPD 64(R8), Z5
	VMOVUPD 128(R8), Z6
	VMOVUPD 192(R8), Z7

zpairCol:
	VMOVUPD (DI), Z8
	VMOVUPD (DX), Z9
	ROW8PAIRZ((R10)(BX*8), Z0, Z4, K1, Z8, Z9)
	ROW8PAIRZ((R11)(BX*8), Z1, Z5, K2, Z8, Z9)
	ROW8PAIRZ((R12)(BX*8), Z2, Z6, K3, Z8, Z9)
	ROW8PAIRZ((R13)(BX*8), Z3, Z7, K4, Z8, Z9)
	VMOVUPD Z8, (DI)
	VMOVUPD Z9, (DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	INCQ    BX
	CMPQ    BX, CX
	JB      zpairCol
	VZEROUPPER
	RET

// func gatherRowsSIMD(dst, src []float64, offs []int, alpha []float64, scale float64, fresh, zmm bool)
//
// The caller's list goes to listWalk (listWalkZ when zmm) as it is.
// Y14 is all zeros when fresh, so that every sum starts from +0
// whatever dst holds, and all ones otherwise.
TEXT ·gatherRowsSIMD(SB), NOSPLIT, $0-106
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	MOVQ         offs_base+48(FP), R8
	MOVQ         offs_len+56(FP), R10
	MOVQ         alpha_base+72(FP), R9
	VBROADCASTSD scale+96(FP), Y15
	MOVBQZX      fresh+104(FP), AX
	DECQ         AX
	VMOVQ        AX, X14
	VPBROADCASTQ X14, Y14
	CMPB         zmm+105(FP), $0
	JNE          gatherZ
	JMP          listWalk<>(SB)

gatherZ:
	JMP listWalkZ<>(SB)

// listWalk is the loop under both: for each element i of the CX at DI,
//
//	dst[i] = ((dst[i] & Y14) + Σ alpha[t]*src[offs[t]+i]) * Y15
//
// over the R10 >= 1 listed terms, in list order, product first, then
// the sum, each rounded, as in axpyAVX2. dst is walked in column panels
// of 32 elements, at most one each of 16, 8 and 4, and the last three
// or fewer one at a time. A panel is loaded into Y0..Y7 once, takes
// every listed term and is stored once: an element sees the operations
// of one axpyAVX2 call per term, then one scaleAVX2, without the loads
// and stores between them. Registers, not a frame, carry its arguments;
// it ends the AVX section for its callers.
TEXT listWalk<>(SB), NOSPLIT|NOFRAME, $0-0
list32:
	CMPQ   CX, $32
	JLT    list16
	VANDPD (DI), Y14, Y0
	VANDPD 32(DI), Y14, Y1
	VANDPD 64(DI), Y14, Y2
	VANDPD 96(DI), Y14, Y3
	VANDPD 128(DI), Y14, Y4
	VANDPD 160(DI), Y14, Y5
	VANDPD 192(DI), Y14, Y6
	VANDPD 224(DI), Y14, Y7
	XORQ   AX, AX

list32Term:
	LISTROW
	VMULPD (DX), Y8, Y9
	VMULPD 32(DX), Y8, Y10
	VMULPD 64(DX), Y8, Y11
	VMULPD 96(DX), Y8, Y12
	VADDPD Y0, Y9, Y0
	VADDPD Y1, Y10, Y1
	VADDPD Y2, Y11, Y2
	VADDPD Y3, Y12, Y3
	VMULPD 128(DX), Y8, Y9
	VMULPD 160(DX), Y8, Y10
	VMULPD 192(DX), Y8, Y11
	VMULPD 224(DX), Y8, Y12
	VADDPD Y4, Y9, Y4
	VADDPD Y5, Y10, Y5
	VADDPD Y6, Y11, Y6
	VADDPD Y7, Y12, Y7
	LISTNEXT(list32Term)
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMULPD  Y15, Y4, Y4
	VMULPD  Y15, Y5, Y5
	VMULPD  Y15, Y6, Y6
	VMULPD  Y15, Y7, Y7
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ    $256, SI
	ADDQ    $256, DI
	SUBQ    $32, CX
	JMP     list32

list16:
	CMPQ   CX, $16
	JLT    list8
	VANDPD (DI), Y14, Y0
	VANDPD 32(DI), Y14, Y1
	VANDPD 64(DI), Y14, Y2
	VANDPD 96(DI), Y14, Y3
	XORQ   AX, AX

list16Term:
	LISTROW
	VMULPD (DX), Y8, Y9
	VMULPD 32(DX), Y8, Y10
	VMULPD 64(DX), Y8, Y11
	VMULPD 96(DX), Y8, Y12
	VADDPD Y0, Y9, Y0
	VADDPD Y1, Y10, Y1
	VADDPD Y2, Y11, Y2
	VADDPD Y3, Y12, Y3
	LISTNEXT(list16Term)
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMULPD  Y15, Y2, Y2
	VMULPD  Y15, Y3, Y3
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $16, CX

list8:
	CMPQ   CX, $8
	JLT    list4
	VANDPD (DI), Y14, Y0
	VANDPD 32(DI), Y14, Y1
	XORQ   AX, AX

list8Term:
	LISTROW
	VMULPD (DX), Y8, Y9
	VMULPD 32(DX), Y8, Y10
	VADDPD Y0, Y9, Y0
	VADDPD Y1, Y10, Y1
	LISTNEXT(list8Term)
	VMULPD  Y15, Y0, Y0
	VMULPD  Y15, Y1, Y1
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	SUBQ    $8, CX

list4:
	CMPQ   CX, $4
	JLT    list1
	VANDPD (DI), Y14, Y0
	XORQ   AX, AX

list4Term:
	LISTROW
	VMULPD (DX), Y8, Y9
	VADDPD Y0, Y9, Y0
	LISTNEXT(list4Term)
	VMULPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX

list1:
	TESTQ  CX, CX
	JZ     listDone
	VMOVSD (DI), X0
	VANDPD X14, X0, X0
	XORQ   AX, AX

list1Term:
	MOVQ   (R8)(AX*8), DX
	VMOVSD (R9)(AX*8), X8
	VMULSD (SI)(DX*8), X8, X9
	VADDSD X0, X9, X0
	LISTNEXT(list1Term)
	VMULSD X15, X0, X0
	VMOVSD X0, (DI)
	ADDQ   $8, SI
	ADDQ   $8, DI
	DECQ   CX
	JMP    list1

listDone:
	VZEROUPPER
	RET

// LISTROWZ is LISTROW for listWalkZ: the alpha goes to every lane of Z8.
#define LISTROWZ \
	MOVQ         (R8)(AX*8), DX; \
	VBROADCASTSD (R9)(AX*8), Z8; \
	LEAQ         (SI)(DX*8), DX

// listWalkZ is listWalk on ZMM registers, for the same callers with the
// same registers set: dst is walked in column panels of 64 elements in
// Z0..Z7, and the 1 to 63 elements left after them take one more panel
// under k-masks, the bits of which are one per element left. More than
// 32 left go through the 64-element panel code with Z4..Z7 masked by
// K4..K7 (all ones in a whole panel); 32 or fewer through a panel of
// Z0..Z3 masked by K1..K4. A masked-off lane is neither read nor
// written, and an element in a lane sees exactly listWalk's operations:
// the AND, a product and a sum per term, the scaling.
TEXT listWalkZ<>(SB), NOSPLIT|NOFRAME, $0-0
	VPBROADCASTQ X14, Z14
	VPBROADCASTQ X15, Z15
	MOVQ         $-1, AX
	KMOVW        AX, K4
	KMOVW        AX, K5
	KMOVW        AX, K6
	KMOVW        AX, K7

zlist64:
	CMPQ CX, $64
	JLT  zlistRest

zpanel64:
	VPANDQ   (DI), Z14, Z0
	VPANDQ   64(DI), Z14, Z1
	VPANDQ   128(DI), Z14, Z2
	VPANDQ   192(DI), Z14, Z3
	VPANDQ.Z 256(DI), Z14, K4, Z4
	VPANDQ.Z 320(DI), Z14, K5, Z5
	VPANDQ.Z 384(DI), Z14, K6, Z6
	VPANDQ.Z 448(DI), Z14, K7, Z7
	XORQ     AX, AX

zterm64:
	LISTROWZ
	VMULPD   (DX), Z8, Z9
	VMULPD   64(DX), Z8, Z10
	VMULPD   128(DX), Z8, Z11
	VMULPD   192(DX), Z8, Z12
	VADDPD   Z0, Z9, Z0
	VADDPD   Z1, Z10, Z1
	VADDPD   Z2, Z11, Z2
	VADDPD   Z3, Z12, Z3
	VMULPD.Z 256(DX), Z8, K4, Z9
	VMULPD.Z 320(DX), Z8, K5, Z10
	VMULPD.Z 384(DX), Z8, K6, Z11
	VMULPD.Z 448(DX), Z8, K7, Z12
	VADDPD   Z4, Z9, Z4
	VADDPD   Z5, Z10, Z5
	VADDPD   Z6, Z11, Z6
	VADDPD   Z7, Z12, Z7
	LISTNEXT(zterm64)
	VMULPD   Z15, Z0, Z0
	VMULPD   Z15, Z1, Z1
	VMULPD   Z15, Z2, Z2
	VMULPD   Z15, Z3, Z3
	VMULPD   Z15, Z4, Z4
	VMULPD   Z15, Z5, Z5
	VMULPD   Z15, Z6, Z6
	VMULPD   Z15, Z7, Z7
	VMOVUPD  Z0, (DI)
	VMOVUPD  Z1, 64(DI)
	VMOVUPD  Z2, 128(DI)
	VMOVUPD  Z3, 192(DI)
	VMOVUPD  Z4, K4, 256(DI)
	VMOVUPD  Z5, K5, 320(DI)
	VMOVUPD  Z6, K6, 384(DI)
	VMOVUPD  Z7, K7, 448(DI)
	ADDQ     $512, SI
	ADDQ     $512, DI
	SUBQ     $64, CX
	JMP      zlist64

zlistRest:
	TESTQ CX, CX
	JZ    zlistDone
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX         // bit i set for each of the CX elements left
	CMPQ  CX, $32
	JLE   zlist32
	SHRQ  $32, AX
	KMOVW AX, K4
	SHRQ  $8, AX
	KMOVW AX, K5
	SHRQ  $8, AX
	KMOVW AX, K6
	SHRQ  $8, AX
	KMOVW AX, K7
	MOVQ  $64, CX    // the last panel
	JMP   zpanel64

zlist32:
	KMOVW    AX, K1
	SHRQ     $8, AX
	KMOVW    AX, K2
	SHRQ     $8, AX
	KMOVW    AX, K3
	SHRQ     $8, AX
	KMOVW    AX, K4
	VPANDQ.Z (DI), Z14, K1, Z0
	VPANDQ.Z 64(DI), Z14, K2, Z1
	VPANDQ.Z 128(DI), Z14, K3, Z2
	VPANDQ.Z 192(DI), Z14, K4, Z3
	XORQ     AX, AX

zterm32:
	LISTROWZ
	VMULPD.Z (DX), Z8, K1, Z9
	VMULPD.Z 64(DX), Z8, K2, Z10
	VMULPD.Z 128(DX), Z8, K3, Z11
	VMULPD.Z 192(DX), Z8, K4, Z12
	VADDPD   Z0, Z9, Z0
	VADDPD   Z1, Z10, Z1
	VADDPD   Z2, Z11, Z2
	VADDPD   Z3, Z12, Z3
	LISTNEXT(zterm32)
	VMULPD   Z15, Z0, Z0
	VMULPD   Z15, Z1, Z1
	VMULPD   Z15, Z2, Z2
	VMULPD   Z15, Z3, Z3
	VMOVUPD  Z0, K1, (DI)
	VMOVUPD  Z1, K2, 64(DI)
	VMOVUPD  Z2, K3, 128(DI)
	VMOVUPD  Z3, K4, 192(DI)

zlistDone:
	VZEROUPPER
	RET

// pairIdx holds the VPERMI2PD indices of PAIRSUM: from two registers of
// unpacked pairs, lane 0 (first half) and lane 2 (second half) of each
// of eight rows, in row order.
DATA pairIdx<>+0(SB)/8, $0
DATA pairIdx<>+8(SB)/8, $4
DATA pairIdx<>+16(SB)/8, $1
DATA pairIdx<>+24(SB)/8, $5
DATA pairIdx<>+32(SB)/8, $8
DATA pairIdx<>+40(SB)/8, $12
DATA pairIdx<>+48(SB)/8, $9
DATA pairIdx<>+56(SB)/8, $13
DATA pairIdx<>+64(SB)/8, $2
DATA pairIdx<>+72(SB)/8, $6
DATA pairIdx<>+80(SB)/8, $3
DATA pairIdx<>+88(SB)/8, $7
DATA pairIdx<>+96(SB)/8, $10
DATA pairIdx<>+104(SB)/8, $14
DATA pairIdx<>+112(SB)/8, $11
DATA pairIdx<>+120(SB)/8, $15
GLOBL pairIdx<>(SB), RODATA|NOPTR, $128

// PAIRSUM reduces four pair accumulators — A0..A3, each the lanes
// s0..s3 of row 2q in its low half and of row 2q+1 in its high half —
// to the eight sums ((s0+s1)+s2)+s3 in A0, rows in order, dotGo's
// reduction lane by lane. The unpacks put lanes 0 and 2 (Z9, Z11) and
// lanes 1 and 3 (Z10, Z12) of rows 0..3 and 4..7 side by side; the
// permutes gather each lane of the eight rows into one register (A0
// lane 0, A2 lane 1, A1 lane 2, A3 lane 3); three adds reduce them.
// Z14 and Z15 hold pairIdx.
#define PAIRSUM(A0, A1, A2, A3) \
	VUNPCKLPD A1, A0, Z9;     \
	VUNPCKHPD A1, A0, Z10;    \
	VUNPCKLPD A3, A2, Z11;    \
	VUNPCKHPD A3, A2, Z12;    \
	VMOVUPD   Z14, A0;        \
	VPERMI2PD Z11, Z9, A0;    \
	VMOVUPD   Z15, A1;        \
	VPERMI2PD Z11, Z9, A1;    \
	VMOVUPD   Z14, A2;        \
	VPERMI2PD Z12, Z10, A2;   \
	VMOVUPD   Z15, A3;        \
	VPERMI2PD Z12, Z10, A3;   \
	VADDPD    A2, A0, A0;     \
	VADDPD    A1, A0, A0;     \
	VADDPD    A3, A0, A0

// func dot16AVX512(dst []float64, dstride int, a []float64, k, rows int, packed []float64)
//
// Sixteen dotGo inner products per row of a, against the sixteen rows
// of b that packBT16 laid out in packed, for rows rows of a (k apart,
// SI) into rows of dst (dstride apart, DI). Z0..Z7 are the accumulators
// of the eight row pairs; each 4-element chunk of the a row, broadcast
// to both halves of Z8, meets the eight pairs' chunks (512 bytes at
// BX). After the k&^3 body elements come PAIRSUM and then the tail, an
// element at a time: its product with the sixteen rows' elements (128
// bytes at BX) added to the sums, rows 0..7 in Z0 and 8..15 in Z4.
TEXT ·dot16AVX512(SB), NOSPLIT, $0-96
	MOVQ    dst_base+0(FP), DI
	MOVQ    dstride+24(FP), R11
	SHLQ    $3, R11
	MOVQ    a_base+32(FP), SI
	MOVQ    k+56(FP), R12
	MOVQ    rows+64(FP), R13
	MOVQ    packed_base+72(FP), R8
	MOVQ    R12, R14
	ANDQ    $-4, R14
	VMOVUPD pairIdx<>+0(SB), Z14
	VMOVUPD pairIdx<>+64(SB), Z15
	TESTQ   R13, R13
	JLE     dot16Done

dot16Row:
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	MOVQ   R8, BX
	XORQ   AX, AX

dot16Body:
	CMPQ            AX, R14
	JGE             dot16Reduce
	VBROADCASTF64X4 (SI)(AX*8), Z8
	VMULPD          (BX), Z8, Z9
	VMULPD          64(BX), Z8, Z10
	VMULPD          128(BX), Z8, Z11
	VMULPD          192(BX), Z8, Z12
	VADDPD          Z9, Z0, Z0
	VADDPD          Z10, Z1, Z1
	VADDPD          Z11, Z2, Z2
	VADDPD          Z12, Z3, Z3
	VMULPD          256(BX), Z8, Z9
	VMULPD          320(BX), Z8, Z10
	VMULPD          384(BX), Z8, Z11
	VMULPD          448(BX), Z8, Z12
	VADDPD          Z9, Z4, Z4
	VADDPD          Z10, Z5, Z5
	VADDPD          Z11, Z6, Z6
	VADDPD          Z12, Z7, Z7
	ADDQ            $512, BX
	ADDQ            $4, AX
	JMP             dot16Body

dot16Reduce:
	PAIRSUM(Z0, Z1, Z2, Z3)
	PAIRSUM(Z4, Z5, Z6, Z7)

dot16Tail:
	CMPQ         AX, R12
	JGE          dot16Store
	VBROADCASTSD (SI)(AX*8), Z8
	VMULPD       (BX), Z8, Z9
	VMULPD       64(BX), Z8, Z10
	VADDPD       Z9, Z0, Z0
	VADDPD       Z10, Z4, Z4
	ADDQ         $128, BX
	INCQ         AX
	JMP          dot16Tail

dot16Store:
	VMOVUPD Z0, (DI)
	VMOVUPD Z4, 64(DI)
	ADDQ    R11, DI
	LEAQ    (SI)(R12*8), SI
	DECQ    R13
	JNZ     dot16Row

dot16Done:
	VZEROUPPER
	RET

// func adamAVX2(w, g, m, v []float64, c *AdamCoef)
//
// Y8..Y15 hold the eight coefficients in AdamCoef's field order. Per
// element, in adamGo's order: m = β1·m + (1−β1)·g, v = β2·v +
// ((1−β2)·g)·g, then w = w − (lr·(m/c1)) / (√(v/c2) + ε). Which NaN
// a NaN meeting a NaN returns depends on operand order, which Go does
// not fix; the differential test compares NaNs by class.
TEXT ·adamAVX2(SB), NOSPLIT, $0-104
	MOVQ         w_base+0(FP), DI
	MOVQ         w_len+8(FP), CX
	MOVQ         g_base+24(FP), SI
	MOVQ         m_base+48(FP), R8
	MOVQ         v_base+72(FP), R9
	MOVQ         c+96(FP), AX
	VBROADCASTSD (AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15

adam4:
	CMPQ    CX, $4
	JLT     adam1
	VMOVUPD (SI), Y0
	VMULPD  (R8), Y8, Y1
	VMULPD  Y0, Y9, Y2
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)
	VMULPD  (R9), Y10, Y3
	VMULPD  Y0, Y11, Y4
	VMULPD  Y0, Y4, Y4
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)
	VDIVPD  Y12, Y1, Y1
	VDIVPD  Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD  Y15, Y3, Y3
	VMULPD  Y1, Y14, Y1
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD  Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R8
	ADDQ    $32, R9
	ADDQ    $32, DI
	SUBQ    $4, CX
	JMP     adam4

adam1:
	TESTQ   CX, CX
	JZ      adamDone
	VMOVSD  (SI), X0
	VMOVSD  (R8), X1
	VMULSD  X1, X8, X1
	VMULSD  X0, X9, X2
	VADDSD  X2, X1, X1
	VMOVSD  X1, (R8)
	VMOVSD  (R9), X3
	VMULSD  X3, X10, X3
	VMULSD  X0, X11, X4
	VMULSD  X0, X4, X4
	VADDSD  X4, X3, X3
	VMOVSD  X3, (R9)
	VDIVSD  X12, X1, X1
	VDIVSD  X13, X3, X3
	VSQRTSD X3, X3, X3
	VADDSD  X15, X3, X3
	VMULSD  X1, X14, X1
	VDIVSD  X3, X1, X1
	VMOVSD  (DI), X5
	VSUBSD  X1, X5, X5
	VMOVSD  X5, (DI)
	ADDQ    $8, SI
	ADDQ    $8, R8
	ADDQ    $8, R9
	ADDQ    $8, DI
	DECQ    CX
	JMP     adam1

adamDone:
	VZEROUPPER
	RET

// The elementwise transcendentals under the losses, four lanes a pass:
// expAVX2 is math.Exp as $GOROOT/src/math/exp_amd64.s computes it on a
// CPU with AVX and FMA (its avxfma branch: Shibata's method, the
// argument reduced by two VFNMADD231 and the Taylor polynomial folded
// by VFMADD213, the only fused operations in this file), and
// log1pAVX2 is the pure-Go math.log1p, whose branches become lane
// masks and whose operations each lane performs in its order. A lane
// runs exactly the standard library's operations on its own input,
// and the integer steps between them — conversions between a double
// and an integer, moves of exponent and mantissa bits — are exact, so
// each element gets the scalar call's bits. Each routine covers the
// inputs whose path it replicates in registers — Exp: a finite x at
// most archExp's overflow bound whose 2^k scale is a normal number (x
// from about -708.7 to 709.78); Log1p: -1 < x < 2^53 — and stops in
// front of the first group of four with a lane outside them, writing
// nothing of that group: its caller (simd.go) computes that group with
// the scalar call and resumes after it. Every group is read and
// written with VMASKMOVPD, the last one masked to the one to four
// elements left: masked-off lanes touch no memory and load as +0, a
// value inside both ranges.

// vecmath holds each constant four times, one YMM load wide, at the
// offsets below; the int32 constants of expAVX2 are four wide.
#define VM_LOG2E 0
#define VM_LN2U 32
#define VM_LN2L 64
#define VM_SIXTEENTH 96
#define VM_C8 128
#define VM_C7 160
#define VM_C6 192
#define VM_C5 224
#define VM_C4 256
#define VM_C3 288
#define VM_HALF 320
#define VM_ONE 352
#define VM_TWO 384
#define VM_OVERFLOW 416
#define VM_BIAS 448
#define VM_BIASM1 464
#define VM_MAXBM1 480
#define VM_NEGONE 512
#define VM_TWO53 544
#define VM_ABS 576
#define VM_E1023 608
#define VM_E1022 640
#define VM_MANT 672
#define VM_SQRT2MANT 704
#define VM_TWO52I 736
#define VM_SQRT2M1 768
#define VM_SQRT2HALFM1 800
#define VM_MAGIC 832
#define VM_LP7 864
#define VM_LP6 896
#define VM_LP5 928
#define VM_LP4 960
#define VM_LP3 992
#define VM_LP2 1024
#define VM_LP1 1056
#define VM_LN2LO 1088
#define VM_LN2HI 1120
#define VM_TWOTHIRDS 1152
#define VM_SMALL 1184
#define VM_TINY 1216

#define VM4(off, bits) \
	DATA vecmath<>+(off)(SB)/8, bits;    \
	DATA vecmath<>+(off+8)(SB)/8, bits;  \
	DATA vecmath<>+(off+16)(SB)/8, bits; \
	DATA vecmath<>+(off+24)(SB)/8, bits

#define VM4D(off, bits) \
	DATA vecmath<>+(off)(SB)/4, bits;    \
	DATA vecmath<>+(off+4)(SB)/4, bits;  \
	DATA vecmath<>+(off+8)(SB)/4, bits;  \
	DATA vecmath<>+(off+12)(SB)/4, bits

// archExp's constants (exp_amd64.s: LOG2E, LN2U, LN2L, exprodata) and
// its overflow bound, by their bits.
VM4(VM_LOG2E, $0x3ff71547652b82fe)
VM4(VM_LN2U, $0x3fe62e42fefa3000)
VM4(VM_LN2L, $0x3d53de6af278ece6)
VM4(VM_SIXTEENTH, $0x3fb0000000000000)
VM4(VM_C8, $0x3efa01a01a01a01a)
VM4(VM_C7, $0x3f2a01a01a01a01a)
VM4(VM_C6, $0x3f56c16c16c16c17)
VM4(VM_C5, $0x3f81111111111111)
VM4(VM_C4, $0x3fa5555555555555)
VM4(VM_C3, $0x3fc5555555555555)
VM4(VM_HALF, $0x3fe0000000000000)
VM4(VM_ONE, $0x3ff0000000000000)
VM4(VM_TWO, $0x4000000000000000)
VM4(VM_OVERFLOW, $0x40862e42fefa39ef)
VM4D(VM_BIAS, $0x3ff)
VM4D(VM_BIASM1, $0x3fe)
VM4D(VM_MAXBM1, $0x7fd)

// log1p's constants (math/log1p.go), by their bits, and the masks and
// integers of its bit manipulation.
VM4(VM_NEGONE, $0xbff0000000000000)
VM4(VM_TWO53, $0x4340000000000000)
VM4(VM_ABS, $0x7fffffffffffffff)
VM4(VM_E1023, $1023)
VM4(VM_E1022, $1022)
VM4(VM_MANT, $0x000fffffffffffff)
VM4(VM_SQRT2MANT, $0x0006a09e667f3bcd)
VM4(VM_TWO52I, $0x0010000000000000)
VM4(VM_SQRT2M1, $0x3fda827999fcef32)
VM4(VM_SQRT2HALFM1, $0xbfd2bec333018867)
VM4(VM_MAGIC, $0x4338000000000000)
VM4(VM_LP7, $0x3fc2f112df3e5244)
VM4(VM_LP6, $0x3fc39a09d078c69f)
VM4(VM_LP5, $0x3fc7466496cb03de)
VM4(VM_LP4, $0x3fcc71c51d8e78af)
VM4(VM_LP3, $0x3fd2492494229359)
VM4(VM_LP2, $0x3fd999999997fa04)
VM4(VM_LP1, $0x3fe5555555555593)
VM4(VM_LN2LO, $0x3dea39ef35793c76)
VM4(VM_LN2HI, $0x3fe62e42fee00000)
VM4(VM_TWOTHIRDS, $0x3fe5555555555555)
VM4(VM_SMALL, $0x3e20000000000000)
VM4(VM_TINY, $0x3c90000000000000)
GLOBL vecmath<>(SB), RODATA|NOPTR, $1248

// EXP4 replaces the four lanes of Y0 with their math.Exp, or jumps to
// out, Y0 unchanged, if a lane is outside expAVX2's range. Per lane, in
// archExp's avxfma order: k = int32(x·log2e) rounded as CVTSD2SL
// rounds (VCVTPD2DQ, by MXCSR), r = x − k·ln2u − k·ln2l (fused),
// r/16, the Taylor polynomial in Horner form (fused), four squarings
// e·(e+2), the last fused with the +1, and the scale 2^k multiplied in
// through the exponent bits k+1023. Uses Y1..Y4 and R9.
#define EXP4(out) \
	VMULPD       vecmath<>+VM_LOG2E(SB), Y0, Y1;    \
	VCVTPD2DQY   Y1, X2;                            \
	VCVTDQ2PD    X2, Y1;                            \
	VPADDD       vecmath<>+VM_BIASM1(SB), X2, X3;   \
	VPMINUD      vecmath<>+VM_MAXBM1(SB), X3, X4;   \
	VPCMPEQD     X4, X3, X3;                        \
	VPMOVSXDQ    X3, Y3;                            \
	VCMPPD       $2, vecmath<>+VM_OVERFLOW(SB), Y0, Y4; \
	VANDPD       Y4, Y3, Y3;                        \
	VMOVMSKPD    Y3, R9;                            \
	CMPQ         R9, $15;                           \
	JNE          out;                               \
	VFNMADD231PD vecmath<>+VM_LN2U(SB), Y1, Y0;     \
	VFNMADD231PD vecmath<>+VM_LN2L(SB), Y1, Y0;     \
	VMULPD       vecmath<>+VM_SIXTEENTH(SB), Y0, Y0; \
	VMOVUPD      vecmath<>+VM_C8(SB), Y1;           \
	VFMADD213PD  vecmath<>+VM_C7(SB), Y0, Y1;       \
	VFMADD213PD  vecmath<>+VM_C6(SB), Y0, Y1;       \
	VFMADD213PD  vecmath<>+VM_C5(SB), Y0, Y1;       \
	VFMADD213PD  vecmath<>+VM_C4(SB), Y0, Y1;       \
	VFMADD213PD  vecmath<>+VM_C3(SB), Y0, Y1;       \
	VFMADD213PD  vecmath<>+VM_HALF(SB), Y0, Y1;     \
	VFMADD213PD  vecmath<>+VM_ONE(SB), Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;                        \
	VADDPD       vecmath<>+VM_TWO(SB), Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;                        \
	VADDPD       vecmath<>+VM_TWO(SB), Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;                        \
	VADDPD       vecmath<>+VM_TWO(SB), Y0, Y1;      \
	VMULPD       Y1, Y0, Y0;                        \
	VADDPD       vecmath<>+VM_TWO(SB), Y0, Y1;      \
	VFMADD213PD  vecmath<>+VM_ONE(SB), Y1, Y0;      \
	VPADDD       vecmath<>+VM_BIAS(SB), X2, X2;     \
	VPMOVZXDQ    X2, Y2;                            \
	VPSLLQ       $52, Y2, Y2;                       \
	VMULPD       Y2, Y0, Y0

// LOG1P4 replaces the four lanes of Y0 with their math.Log1p, or jumps
// to out, Y0 unchanged, if a lane is outside log1pAVX2's range
// (x <= -1, NaN, x >= 2^53). Every branch of log1p is computed and the
// lane's own one selected with VBLENDVPD: the path through u = 1+x
// with its correction term c and the renormalisation of u's mantissa
// about √2; k = 0, f = x where √2/2−1 < x < √2−1; the two iu == 0
// returns; the general s = f/(2+f) form; and |x| < 2^-29 and |x| <
// 2^-54 last, those two and the iu == 0 returns skipped when no lane
// takes them. k stays an int64 and becomes a float64 by the exact
// 1.5·2^52 bias. Uses Y1..Y14 and R9.
#define LOG1P4(out) \
	VCMPPD    $0x0e, vecmath<>+VM_NEGONE(SB), Y0, Y1;  \
	VCMPPD    $1, vecmath<>+VM_TWO53(SB), Y0, Y2;      \
	VANDPD    Y2, Y1, Y1;                              \
	VMOVMSKPD Y1, R9;                                  \
	CMPQ      R9, $15;                                 \
	JNE       out;                                     \
	VADDPD    vecmath<>+VM_ONE(SB), Y0, Y1;            \
	VPSRLQ    $52, Y1, Y2;                             \
	VSUBPD    Y0, Y1, Y3;                              \
	VMOVUPD   vecmath<>+VM_ONE(SB), Y4;                \
	VSUBPD    Y3, Y4, Y3;                              \
	VSUBPD    vecmath<>+VM_ONE(SB), Y1, Y4;            \
	VSUBPD    Y4, Y0, Y4;                              \
	VPCMPGTQ  vecmath<>+VM_E1023(SB), Y2, Y5;          \
	VBLENDVPD Y5, Y3, Y4, Y3;                          \
	VDIVPD    Y1, Y3, Y3;                              \
	VPAND     vecmath<>+VM_MANT(SB), Y1, Y4;           \
	VMOVDQU   vecmath<>+VM_SQRT2MANT(SB), Y5;          \
	VPCMPGTQ  Y4, Y5, Y5;                              \
	VPOR      vecmath<>+VM_ONE(SB), Y4, Y1;            \
	VPOR      vecmath<>+VM_HALF(SB), Y4, Y6;           \
	VBLENDVPD Y5, Y1, Y6, Y6;                          \
	VPSUBQ    vecmath<>+VM_E1022(SB), Y2, Y2;          \
	VPADDQ    Y5, Y2, Y2;                              \
	VMOVDQU   vecmath<>+VM_TWO52I(SB), Y1;             \
	VPSUBQ    Y4, Y1, Y1;                              \
	VPSRLQ    $2, Y1, Y1;                              \
	VBLENDVPD Y5, Y4, Y1, Y4;                          \
	VSUBPD    vecmath<>+VM_ONE(SB), Y6, Y6;            \
	VANDPD    vecmath<>+VM_ABS(SB), Y0, Y1;            \
	VCMPPD    $1, vecmath<>+VM_SQRT2M1(SB), Y1, Y7;    \
	VCMPPD    $0x0e, vecmath<>+VM_SQRT2HALFM1(SB), Y0, Y1; \
	VANDPD    Y1, Y7, Y7;                              \
	VBLENDVPD Y7, Y0, Y6, Y6;                          \
	VPANDN    Y2, Y7, Y2;                              \
	VPXOR     Y1, Y1, Y1;                              \
	VPCMPEQQ  Y1, Y4, Y4;                              \
	VPANDN    Y4, Y7, Y4;                              \
	VMULPD    vecmath<>+VM_HALF(SB), Y6, Y8;           \
	VMULPD    Y6, Y8, Y8;                              \
	VPADDQ    vecmath<>+VM_MAGIC(SB), Y2, Y9;          \
	VSUBPD    vecmath<>+VM_MAGIC(SB), Y9, Y9;          \
	VPCMPEQQ  Y1, Y2, Y12;                             \
	VMULPD    vecmath<>+VM_LN2LO(SB), Y9, Y14;         \
	VADDPD    Y3, Y14, Y14;                            \
	VMULPD    vecmath<>+VM_LN2HI(SB), Y9, Y11;         \
	VADDPD    vecmath<>+VM_TWO(SB), Y6, Y10;           \
	VDIVPD    Y10, Y6, Y10;                            \
	VMULPD    Y10, Y10, Y13;                           \
	VMULPD    vecmath<>+VM_LP7(SB), Y13, Y5;           \
	VADDPD    vecmath<>+VM_LP6(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    vecmath<>+VM_LP5(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    vecmath<>+VM_LP4(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    vecmath<>+VM_LP3(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    vecmath<>+VM_LP2(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    vecmath<>+VM_LP1(SB), Y5, Y5;            \
	VMULPD    Y5, Y13, Y5;                             \
	VADDPD    Y5, Y8, Y5;                              \
	VMULPD    Y5, Y10, Y5;                             \
	VADDPD    Y14, Y5, Y10;                            \
	VSUBPD    Y10, Y8, Y10;                            \
	VSUBPD    Y6, Y10, Y10;                            \
	VSUBPD    Y10, Y11, Y10;                           \
	VSUBPD    Y5, Y8, Y5;                              \
	VSUBPD    Y5, Y6, Y5;                              \
	VBLENDVPD Y12, Y5, Y10, Y10;                       \
	VTESTPD   Y4, Y4;                                  \
	JZ        noE;                                     \
	VMULPD    vecmath<>+VM_TWOTHIRDS(SB), Y6, Y5;      \
	VMOVUPD   vecmath<>+VM_ONE(SB), Y13;               \
	VSUBPD    Y5, Y13, Y5;                             \
	VMULPD    Y5, Y8, Y5;                              \
	VSUBPD    Y14, Y5, Y13;                            \
	VSUBPD    Y6, Y13, Y13;                            \
	VSUBPD    Y13, Y11, Y13;                           \
	VSUBPD    Y5, Y6, Y5;                              \
	VBLENDVPD Y12, Y5, Y13, Y13;                       \
	VADDPD    Y14, Y11, Y5;                            \
	VPANDN    Y5, Y12, Y5;                             \
	VCMPPD    $0, Y1, Y6, Y7;                          \
	VBLENDVPD Y7, Y5, Y13, Y13;                        \
	VBLENDVPD Y4, Y13, Y10, Y10;                       \
noE:;                                                  \
	VANDPD    vecmath<>+VM_ABS(SB), Y0, Y13;           \
	VCMPPD    $1, vecmath<>+VM_SMALL(SB), Y13, Y7;     \
	VTESTPD   Y7, Y7;                                  \
	JZ        noSmall;                                 \
	VMULPD    Y0, Y0, Y5;                              \
	VMULPD    vecmath<>+VM_HALF(SB), Y5, Y5;           \
	VSUBPD    Y5, Y0, Y5;                              \
	VBLENDVPD Y7, Y5, Y10, Y10;                        \
	VCMPPD    $1, vecmath<>+VM_TINY(SB), Y13, Y7;      \
	VBLENDVPD Y7, Y0, Y10, Y10;                        \
noSmall:;                                              \
	VMOVAPD   Y10, Y0

// tailMask, read from element 4-r, is the VMASKMOVPD mask of the first
// r = 1..4 lanes.
DATA tailMask<>+0(SB)/8, $-1
DATA tailMask<>+8(SB)/8, $-1
DATA tailMask<>+16(SB)/8, $-1
DATA tailMask<>+24(SB)/8, $-1
DATA tailMask<>+32(SB)/8, $0
DATA tailMask<>+40(SB)/8, $0
DATA tailMask<>+48(SB)/8, $0
GLOBL tailMask<>(SB), RODATA|NOPTR, $56

// ELEMENTWISE is the body of expAVX2 and log1pAVX2: LANES over the
// elements four at a time from AX, the last one to four through a
// tailMask mask in Y15, returning the count of elements written:
// len(dst), or the start of the group LANES refused.
#define ELEMENTWISE(LANES) \
	MOVQ       dst_base+0(FP), DI;    \
	MOVQ       dst_len+8(FP), CX;     \
	MOVQ       src_base+24(FP), SI;   \
	XORQ       AX, AX;                \
	LEAQ       tailMask<>+32(SB), R8; \
loop:;                                \
	MOVQ       CX, DX;                \
	SUBQ       AX, DX;                \
	JLE        done;                  \
	MOVQ       $4, R10;               \
	CMPQ       DX, R10;               \
	CMOVQGT    R10, DX;               \
	NEGQ       DX;                    \
	VMOVDQU    (R8)(DX*8), Y15;       \
	VMASKMOVPD (SI)(AX*8), Y15, Y0;   \
	LANES(done);                      \
	VMASKMOVPD Y0, Y15, (DI)(AX*8);   \
	ADDQ       $4, AX;                \
	JMP        loop;                  \
done:;                                \
	CMPQ       AX, CX;                \
	CMOVQGT    CX, AX;                \
	MOVQ       AX, ret+48(FP);        \
	VZEROUPPER;                       \
	RET

// func expAVX2(dst, src []float64) int
TEXT ·expAVX2(SB), NOSPLIT, $0-56
	ELEMENTWISE(EXP4)

// func log1pAVX2(dst, src []float64) int
TEXT ·log1pAVX2(SB), NOSPLIT, $0-56
	ELEMENTWISE(LOG1P4)

// narrowMask, read from element 16-n, is the VMASKMOVPD masks of the
// first n = 1..16 lanes of a row, four registers' worth.
DATA narrowMask<>+0(SB)/8, $-1
DATA narrowMask<>+8(SB)/8, $-1
DATA narrowMask<>+16(SB)/8, $-1
DATA narrowMask<>+24(SB)/8, $-1
DATA narrowMask<>+32(SB)/8, $-1
DATA narrowMask<>+40(SB)/8, $-1
DATA narrowMask<>+48(SB)/8, $-1
DATA narrowMask<>+56(SB)/8, $-1
DATA narrowMask<>+64(SB)/8, $-1
DATA narrowMask<>+72(SB)/8, $-1
DATA narrowMask<>+80(SB)/8, $-1
DATA narrowMask<>+88(SB)/8, $-1
DATA narrowMask<>+96(SB)/8, $-1
DATA narrowMask<>+104(SB)/8, $-1
DATA narrowMask<>+112(SB)/8, $-1
DATA narrowMask<>+120(SB)/8, $-1
DATA narrowMask<>+128(SB)/8, $0
DATA narrowMask<>+136(SB)/8, $0
DATA narrowMask<>+144(SB)/8, $0
DATA narrowMask<>+152(SB)/8, $0
DATA narrowMask<>+160(SB)/8, $0
DATA narrowMask<>+168(SB)/8, $0
DATA narrowMask<>+176(SB)/8, $0
DATA narrowMask<>+184(SB)/8, $0
DATA narrowMask<>+192(SB)/8, $0
DATA narrowMask<>+200(SB)/8, $0
DATA narrowMask<>+208(SB)/8, $0
DATA narrowMask<>+216(SB)/8, $0
DATA narrowMask<>+224(SB)/8, $0
DATA narrowMask<>+232(SB)/8, $0
DATA narrowMask<>+240(SB)/8, $0
DATA narrowMask<>+248(SB)/8, $0
GLOBL narrowMask<>(SB), RODATA|NOPTR, $256

// The loops of gatherCSRSIMD share these registers: DI is dst moved
// back by base rows, so that vertex v's row is at DI + v*BX; SI src; BX
// the row's bytes, n*8; R8 rowPtr; R9 col; R10 verts, or 0; R11 the
// block position and R12 the position after the last; R13 w, or 0 for
// an unweighted sum; CX 1 for a mean; X4 1.0. Per vertex, DX walks its
// adjacency list up to R14, R15 points at its row of dst and X5 holds
// 1/deg(v).
//
// CSRROW starts the vertex at position R11: v is verts[R11], or R11
// itself when there is no list. It jumps to empty, with R15 set, when
// the adjacency list is empty; otherwise it computes the mean's scale
// while the terms are summed, off their add chain.
#define CSRROW(vert, empty) \
	MOVQ       R11, AX;          \
	TESTQ      R10, R10;         \
	JZ         vert;             \
	MOVQ       (R10)(R11*8), AX; \
vert:;                           \
	MOVQ       (R8)(AX*8), DX;   \
	MOVQ       8(R8)(AX*8), R14; \
	IMULQ      BX, AX;           \
	LEAQ       (DI)(AX*1), R15;  \
	MOVQ       R14, AX;          \
	SUBQ       DX, AX;           \
	JZ         empty;            \
	VCVTSI2SDQ AX, X5, X5;       \
	VDIVSD     X5, X4, X5

// CSRTERM sets AX to the byte offset in src of the DX-th neighbour's
// row; CSRTERMW also broadcasts its weight into wreg.
#define CSRTERM \
	MOVLQSX (R9)(DX*4), AX; \
	IMULQ   BX, AX

#define CSRTERMW(wreg) \
	MOVLQSX      (R9)(DX*4), AX;    \
	VBROADCASTSD (R13)(AX*8), wreg; \
	IMULQ        BX, AX

// CSRNEXT closes a vertex's term loop, and CSRDONE the block's vertex
// loop.
#define CSRNEXT(loop) \
	INCQ DX;      \
	CMPQ DX, R14; \
	JLT  loop

#define CSRDONE(loop) \
	INCQ R11;      \
	CMPQ R11, R12; \
	JLT  loop

// func gatherCSRSIMD(dst, src []float64, n int, rowPtr []int64, col []int32, verts []int, lo, count, base int, w []float64, mean bool)
//
// One pass over the block's vertices, each a GatherSum of its
// adjacency list with the row in registers from the +0 to the store:
// each term a product by its weight (none for an unweighted sum: x is
// 1*x, and the add quiets a signalling NaN as the product would) and
// an add, product first, as in listWalk; then the mean's one product by
// 1/deg(v), the accumulator first, as listWalk scales. A vertex without
// terms stores +0. A row is two YMM registers (n <= 8) or four: the
// first four lanes, and for n > 8 the next four, are whole (n >= 4) and
// move with plain loads and stores, the rest under the VMASKMOVPD masks
// Y13..Y15, whose masked-off lanes are neither read nor written. There
// are four loops: two register panels or four, weighted or not.
TEXT ·gatherCSRSIMD(SB), NOSPLIT, $0-177
	MOVQ    dst_base+0(FP), DI
	MOVQ    src_base+24(FP), SI
	MOVQ    n+48(FP), BX
	MOVQ    rowPtr_base+56(FP), R8
	MOVQ    col_base+80(FP), R9
	MOVQ    verts_base+104(FP), R10
	MOVQ    lo+128(FP), R11
	MOVQ    count+136(FP), R12
	ADDQ    R11, R12
	MOVQ    w_base+152(FP), R13
	CMPQ    w_len+160(FP), $0
	JNE     csrWeighted
	XORQ    R13, R13

csrWeighted:
	MOVQ    $0x3ff0000000000000, AX
	VMOVQ   AX, X4
	MOVQ    BX, AX
	NEGQ    AX
	LEAQ    narrowMask<>+128(SB), DX
	LEAQ    (DX)(AX*8), DX
	VMOVDQU 32(DX), Y13
	VMOVDQU 64(DX), Y14
	VMOVDQU 96(DX), Y15
	SHLQ    $3, BX             // the row's bytes
	MOVQ    base+144(FP), AX
	IMULQ   BX, AX
	SUBQ    AX, DI             // dst moved back by base rows
	MOVBQZX mean+176(FP), CX
	CMPQ    BX, $64
	JGT     y4
	TESTQ   R13, R13
	JNZ     y2w

y2:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CSRROW(y2v, y2s)

y2t:
	CSRTERM
	ADDQ       SI, AX
	VMOVUPD    (AX), Y8
	VMASKMOVPD 32(AX), Y13, Y9
	VADDPD     Y0, Y8, Y0
	VADDPD     Y1, Y9, Y1
	CSRNEXT(y2t)
	TESTQ      CX, CX
	JZ         y2s
	VBROADCASTSD X5, Y5
	VMULPD     Y5, Y0, Y0
	VMULPD     Y5, Y1, Y1

y2s:
	VMOVUPD    Y0, (R15)
	VMASKMOVPD Y1, Y13, 32(R15)
	CSRDONE(y2)
	VZEROUPPER
	RET

y2w:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	CSRROW(y2wv, y2ws)

y2wt:
	CSRTERMW(Y6)
	ADDQ       SI, AX
	VMOVUPD    (AX), Y8
	VMASKMOVPD 32(AX), Y13, Y9
	VMULPD     Y8, Y6, Y8
	VMULPD     Y9, Y6, Y9
	VADDPD     Y0, Y8, Y0
	VADDPD     Y1, Y9, Y1
	CSRNEXT(y2wt)
	TESTQ      CX, CX
	JZ         y2ws
	VBROADCASTSD X5, Y5
	VMULPD     Y5, Y0, Y0
	VMULPD     Y5, Y1, Y1

y2ws:
	VMOVUPD    Y0, (R15)
	VMASKMOVPD Y1, Y13, 32(R15)
	CSRDONE(y2w)
	VZEROUPPER
	RET

y4:
	TESTQ R13, R13
	JNZ   y4w

y4l:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CSRROW(y4v, y4s)

y4t:
	CSRTERM
	ADDQ       SI, AX
	VMOVUPD    (AX), Y8
	VMOVUPD    32(AX), Y9
	VMASKMOVPD 64(AX), Y14, Y10
	VMASKMOVPD 96(AX), Y15, Y11
	VADDPD     Y0, Y8, Y0
	VADDPD     Y1, Y9, Y1
	VADDPD     Y2, Y10, Y2
	VADDPD     Y3, Y11, Y3
	CSRNEXT(y4t)
	TESTQ      CX, CX
	JZ         y4s
	VBROADCASTSD X5, Y5
	VMULPD     Y5, Y0, Y0
	VMULPD     Y5, Y1, Y1
	VMULPD     Y5, Y2, Y2
	VMULPD     Y5, Y3, Y3

y4s:
	VMOVUPD    Y0, (R15)
	VMOVUPD    Y1, 32(R15)
	VMASKMOVPD Y2, Y14, 64(R15)
	VMASKMOVPD Y3, Y15, 96(R15)
	CSRDONE(y4l)
	VZEROUPPER
	RET

y4w:
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CSRROW(y4wv, y4ws)

y4wt:
	CSRTERMW(Y6)
	ADDQ       SI, AX
	VMOVUPD    (AX), Y8
	VMOVUPD    32(AX), Y9
	VMASKMOVPD 64(AX), Y14, Y10
	VMASKMOVPD 96(AX), Y15, Y11
	VMULPD     Y8, Y6, Y8
	VMULPD     Y9, Y6, Y9
	VMULPD     Y10, Y6, Y10
	VMULPD     Y11, Y6, Y11
	VADDPD     Y0, Y8, Y0
	VADDPD     Y1, Y9, Y1
	VADDPD     Y2, Y10, Y2
	VADDPD     Y3, Y11, Y3
	CSRNEXT(y4wt)
	TESTQ      CX, CX
	JZ         y4ws
	VBROADCASTSD X5, Y5
	VMULPD     Y5, Y0, Y0
	VMULPD     Y5, Y1, Y1
	VMULPD     Y5, Y2, Y2
	VMULPD     Y5, Y3, Y3

y4ws:
	VMOVUPD    Y0, (R15)
	VMOVUPD    Y1, 32(R15)
	VMASKMOVPD Y2, Y14, 64(R15)
	VMASKMOVPD Y3, Y15, 96(R15)
	CSRDONE(y4w)
	VZEROUPPER
	RET
