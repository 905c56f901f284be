//go:build !race

#include "textflag.h"

// HSUM adds the four lanes of Y0 to the scalar in X14 one at a time, lane 0
// first: the portable kernel's sequential dot, carried four terms further.
#define HSUM \
	VADDSD       X0, X14, X14 \
	VPERMILPD    $1, X0, X1   \
	VADDSD       X1, X14, X14 \
	VEXTRACTF128 $1, Y0, X2   \
	VADDSD       X2, X14, X14 \
	VPERMILPD    $1, X2, X3   \
	VADDSD       X3, X14, X14

// CHECK jumps to bad unless the id at off(ids) is below lim, compared
// unsigned, so a negative id is out of range too.
#define CHECK(ids, off, lim) \
	MOVLQSX off(ids), AX \
	CMPQ    AX, lim      \
	JHS     bad

// ROWPTR points reg at row off(ids) of the rank-wide matrix at base.
#define ROWPTR(ids, off, base, reg) \
	MOVLQSX off(ids), reg \
	IMULQ   R9, reg       \
	ADDQ    base, reg

// func fusedBlock3AVX2(idx, loc []int32, val, f0, f1, f2, acc0, acc1, acc2, left []float64, sum float64, rank, n0, n1, n2, m0, m1, m2 int) (norm2 float64, bad int)
//
// The order-3 body of fusedBlockMTTKRP, four ranks a step (see
// kernel_amd64.go). Registers across the entry loop:
//
//	SI idx, DI loc, R8 val: the current entry     BX entry number
//	R9 rank·8 (a row's bytes)                     R11 the bytes the 4-lane steps cover
//	R15 left1 = 1·A0[i,:]                         CX left2 = left1 ⊙ A1[j,:]
//	R13 A1[j,:]   R14 A2[k,:]                     X14 model   X13 ‖E‖²   Y15 1.0 ×4
//
// Each loop steps DX through a row's bytes: 32 at a time up to R11, then 8.
TEXT ·fusedBlock3AVX2(SB), NOSPLIT, $0-320
	MOVQ idx_base+0(FP), SI
	MOVQ loc_base+24(FP), DI
	MOVQ val_base+48(FP), R8
	MOVQ left_base+216(FP), R15
	MOVQ rank+248(FP), R9
	SHLQ $3, R9
	MOVQ R9, R11
	ANDQ $-32, R11
	LEAQ (R15)(R9*1), CX
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X15
	VBROADCASTSD X15, Y15
	VMOVSD       sum+240(FP), X13
	VXORPD       X14, X14, X14
	XORQ         BX, BX

entry:
	CMPQ BX, val_len+56(FP)
	JGE  done

	// Every id of the entry is in range before anything is read through it.
	CHECK(SI, 0, n0+256(FP))
	CHECK(SI, 4, n1+264(FP))
	CHECK(SI, 8, n2+272(FP))
	CHECK(DI, 0, m0+280(FP))
	CHECK(DI, 4, m1+288(FP))
	CHECK(DI, 8, m2+296(FP))

	// The first mode whose id differs from the previous entry's: the
	// prefix levels below it, and for a duplicate the model, carry over.
	TESTQ BX, BX
	JEQ   mode0
	MOVL  0(SI), AX
	CMPL  AX, -12(SI)
	JNE   mode0
	MOVL  4(SI), AX
	CMPL  AX, -8(SI)
	JNE   mode1
	MOVL  8(SI), AX
	CMPL  AX, -4(SI)
	JNE   mode2
	JMP   resid

mode0: // left1 = 1 · A0[i,:]
	ROWPTR(SI, 0, f0_base+72(FP), R12)
	XORQ    DX, DX
	CMPQ    DX, R11
	JEQ     mode0tail

mode0vec:
	VMULPD  (R12)(DX*1), Y15, Y0
	VMOVUPD Y0, (R15)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R11
	JNE     mode0vec

mode0tail:
	CMPQ DX, R9
	JEQ  mode1

mode0scalar:
	VMULSD (R12)(DX*1), X15, X0
	VMOVSD X0, (R15)(DX*1)
	ADDQ   $8, DX
	CMPQ   DX, R9
	JNE    mode0scalar

mode1: // left2 = left1 ⊙ A1[j,:]
	ROWPTR(SI, 4, f1_base+96(FP), R13)
	XORQ    DX, DX
	CMPQ    DX, R11
	JEQ     mode1tail

mode1vec:
	VMOVUPD (R15)(DX*1), Y0
	VMULPD  (R13)(DX*1), Y0, Y0
	VMOVUPD Y0, (CX)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R11
	JNE     mode1vec

mode1tail:
	CMPQ DX, R9
	JEQ  mode2

mode1scalar:
	VMOVSD (R15)(DX*1), X0
	VMULSD (R13)(DX*1), X0, X0
	VMOVSD X0, (CX)(DX*1)
	ADDQ   $8, DX
	CMPQ   DX, R9
	JNE    mode1scalar

mode2: // model = +0 + Σ_r left2[r]·A2[k,r], ascending r
	ROWPTR(SI, 8, f2_base+120(FP), R14)
	VXORPD  X14, X14, X14
	XORQ    DX, DX
	CMPQ    DX, R11
	JEQ     mode2tail

mode2vec:
	VMOVUPD (CX)(DX*1), Y0
	VMULPD  (R14)(DX*1), Y0, Y0
	HSUM
	ADDQ    $32, DX
	CMPQ    DX, R11
	JNE     mode2vec

mode2tail:
	CMPQ DX, R9
	JEQ  resid

mode2scalar:
	VMOVSD (CX)(DX*1), X0
	VMULSD (R14)(DX*1), X0, X0
	VADDSD X0, X14, X14
	ADDQ   $8, DX
	CMPQ   DX, R9
	JNE    mode2scalar

resid: // resid = val − model; ‖E‖² += resid·resid
	VMOVSD       (R8), X12
	VSUBSD       X14, X12, X12
	VMULSD       X12, X12, X0
	VADDSD       X0, X13, X13
	VBROADCASTSD X12, Y12

	// The backward sweep, all three modes in one pass (lane r of each is
	// independent of every other lane): s2 = resid·A2[k,r];
	// acc2 += left2·resid; acc1 += left1·s2; s1 = s2·A1[j,r]; acc0 += s1.
	ROWPTR(DI, 8, acc2_base+192(FP), AX)
	ROWPTR(DI, 4, acc1_base+168(FP), R10)
	ROWPTR(DI, 0, acc0_base+144(FP), R12)
	XORQ    DX, DX
	CMPQ    DX, R11
	JEQ     sweeptail

sweepvec:
	VMULPD  (R14)(DX*1), Y12, Y0
	VMOVUPD (CX)(DX*1), Y1
	VMULPD  Y12, Y1, Y1
	VADDPD  (AX)(DX*1), Y1, Y1
	VMOVUPD Y1, (AX)(DX*1)
	VMOVUPD (R15)(DX*1), Y2
	VMULPD  Y0, Y2, Y2
	VADDPD  (R10)(DX*1), Y2, Y2
	VMOVUPD Y2, (R10)(DX*1)
	VMULPD  (R13)(DX*1), Y0, Y0
	VADDPD  (R12)(DX*1), Y0, Y0
	VMOVUPD Y0, (R12)(DX*1)
	ADDQ    $32, DX
	CMPQ    DX, R11
	JNE     sweepvec

sweeptail:
	CMPQ DX, R9
	JEQ  next

sweepscalar:
	VMULSD (R14)(DX*1), X12, X0
	VMOVSD (CX)(DX*1), X1
	VMULSD X12, X1, X1
	VADDSD (AX)(DX*1), X1, X1
	VMOVSD X1, (AX)(DX*1)
	VMOVSD (R15)(DX*1), X2
	VMULSD X0, X2, X2
	VADDSD (R10)(DX*1), X2, X2
	VMOVSD X2, (R10)(DX*1)
	VMULSD (R13)(DX*1), X0, X0
	VADDSD (R12)(DX*1), X0, X0
	VMOVSD X0, (R12)(DX*1)
	ADDQ   $8, DX
	CMPQ   DX, R9
	JNE    sweepscalar

next:
	ADDQ $12, SI
	ADDQ $12, DI
	ADDQ $8, R8
	INCQ BX
	JMP  entry

done:
	VZEROUPPER
	VMOVSD X13, norm2+304(FP)
	MOVQ   $-1, bad+312(FP)
	RET

bad:
	VZEROUPPER
	VMOVSD X13, norm2+304(FP)
	MOVQ   BX, bad+312(FP)
	RET
