#include "textflag.h"

// Vector kernels at two levels, AVX2 and AVX-512, picked once from
// CPUID (simd_amd64.go). Arithmetic is VMULPD followed by VADDPD (and
// the scalar VMULSD/VADDSD in tails) — never a fused multiply-add — so
// every element is rounded exactly as in the portable Go loops of
// simd.go, at either width. A wider register changes which elements
// share an instruction, never the operations an element sees or their
// order: the ZMM list walk gives each element of dst its own lane as
// the YMM one does, and dot16AVX512 keeps dotGo's four accumulator
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

// A term list is two parallel arrays, R9 the alphas and R8 the element
// offsets of their rows in src, R10 terms long. axpyRowsAVX2 compacts
// one into its frame; gatherRowsAVX2 is handed one by its caller.
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

// func accumAT8AVX2(acc, a, b []float64, k, count int)
//
// axpyRows4x8AVX2 turned around for aᵀ·b: the four rows of b live in
// Y0..Y7 and the rows of acc stream past them. Each pass takes rows t..t+3
// of a (SI, R9 bytes apart; R11 is three of them) and walks c = 0..k-1
// once: row c of acc is loaded into Y8:Y9, takes a[t][c]*b[t] through
// a[t+3][c]*b[t+3] in that order, and is stored. So a is read along its
// rows, four sequential streams, where a walk down its columns would
// take each term from a new cache line; acc, k rows of 64 bytes, stays
// in the L1 cache from one pass to the next. The rows of a left over
// after the last four go one at a time, by the same arithmetic on Y0:Y1.
// Each element of acc receives the rounded product-then-add of axpyGo
// for each non-zero of a in its column, in row order, and zeros are
// masked to +0 under axpyRows4x8AVX2's argument: the caller (MulAT,
// through accumATRange) starts every acc from +0.
TEXT ·accumAT8AVX2(SB), NOSPLIT, $0-88
	MOVQ   acc_base+0(FP), DI
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   k+72(FP), R9
	MOVQ   count+80(FP), CX
	MOVQ   R9, R12
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
