//go:build !race

#include "textflag.h"

// HSUM adds the four lanes of Y0 to the scalar in X14 one at a time, lane 0
// first: At's sequential sum, carried four terms further.
#define HSUM \
	VADDSD       X0, X14, X14 \
	VPERMILPD    $1, X0, X1   \
	VADDSD       X1, X14, X14 \
	VEXTRACTF128 $1, Y0, X2   \
	VADDSD       X2, X14, X14 \
	VPERMILPD    $1, X2, X3   \
	VADDSD       X3, X14, X14

// ROWPTR points reg at row off(SI) of the rank-wide matrix at base.
#define ROWPTR(off, base, reg) \
	MOVLQSX off(SI), reg \
	IMULQ   R9, reg      \
	ADDQ    base, reg

// PREFETCHROW issues PREFETCHT0 for every 64-byte line of the row at AX,
// the first to the one holding its last byte; it clobbers AX and DX.
#define PREFETCHROW(label) \
	LEAQ  -1(AX)(R9*1), DX \
	ANDQ  $-64, AX         \
label:                     \
	PREFETCHT0 (AX)        \
	ADDQ  $64, AX          \
	CMPQ  AX, DX           \
	JLS   label

// func atCells3AVX2(flat []int32, out, f0, f1, f2 []float64, rank, n0, n1, n2 int) (bad int)
//
// The order-3 body of Kruskal.AtCells, four ranks a step (see
// kruskal_amd64.go). Registers across the cell loop:
//
//	SI flat: the current cell      DI out    BX cell number
//	R9 rank·8 (a row's bytes)      R11 the bytes the 4-lane steps cover
//	R10, R12, R13 the factors      R14 n0    R15 n1
//	AX, CX, R8 the cell's rows     X14 the cell's value
//
// The compute loops step DX through a row's bytes: 32 at a time up to R11,
// then 8.
TEXT ·atCells3AVX2(SB), NOSPLIT, $0-160
	MOVQ flat_base+0(FP), SI
	MOVQ out_base+24(FP), DI
	MOVQ f0_base+48(FP), R10
	MOVQ f1_base+72(FP), R12
	MOVQ f2_base+96(FP), R13
	MOVQ rank+120(FP), R9
	SHLQ $3, R9
	MOVQ R9, R11
	ANDQ $-32, R11
	MOVQ n0+128(FP), R14
	MOVQ n1+136(FP), R15
	XORQ BX, BX

	PCALIGN $32

cell:
	CMPQ BX, out_len+32(FP)
	JGE  done

	// The mode-0 and mode-1 rows of cell c+8, each only once its id is in
	// range (compared unsigned, so a negative id is out of range too); a bad
	// one is reported when its own cell comes up.
	LEAQ 8(BX), AX
	CMPQ AX, out_len+32(FP)
	JGE  check
	MOVLQSX 96(SI), AX
	CMPQ    AX, R14
	JHS     ahead1
	IMULQ   R9, AX
	ADDQ    R10, AX
	PREFETCHROW(ahead0lines)

ahead1:
	MOVLQSX 100(SI), AX
	CMPQ    AX, R15
	JHS     check
	IMULQ   R9, AX
	ADDQ    R12, AX
	PREFETCHROW(ahead1lines)

check:
	// Every id of the cell is in range before anything is read through it.
	MOVLQSX 0(SI), AX
	CMPQ    AX, R14
	JHS     bad
	MOVLQSX 4(SI), AX
	CMPQ    AX, R15
	JHS     bad
	MOVLQSX 8(SI), AX
	CMPQ    AX, n2+144(FP)
	JHS     bad

	// value = +0 + Σ_r (A0[i,r]·A1[j,r])·A2[k,r], ascending r.
	ROWPTR(0, R10, AX)
	ROWPTR(4, R12, CX)
	ROWPTR(8, R13, R8)
	VXORPD X14, X14, X14
	XORQ   DX, DX
	CMPQ   DX, R11
	JEQ    tail

vec:
	VMOVUPD (AX)(DX*1), Y0
	VMULPD  (CX)(DX*1), Y0, Y0
	VMULPD  (R8)(DX*1), Y0, Y0
	HSUM
	ADDQ    $32, DX
	CMPQ    DX, R11
	JNE     vec

tail:
	CMPQ DX, R9
	JEQ  store

scalar:
	VMOVSD (AX)(DX*1), X0
	VMULSD (CX)(DX*1), X0, X0
	VMULSD (R8)(DX*1), X0, X0
	VADDSD X0, X14, X14
	ADDQ   $8, DX
	CMPQ   DX, R9
	JNE    scalar

store:
	VMOVSD X14, (DI)(BX*8)
	ADDQ   $12, SI
	INCQ   BX
	JMP    cell

done:
	VZEROUPPER
	MOVQ $-1, bad+152(FP)
	RET

bad:
	VZEROUPPER
	MOVQ BX, bad+152(FP)
	RET
