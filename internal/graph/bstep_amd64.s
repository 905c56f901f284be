//go:build !race

#include "textflag.h"

// NEIGHBOURS folds row i's neighbour rows into the accumulators of the
// column block at byte offset AX: for k in [R10, R13), check col[k] < n
// (unsigned, so a negative id fails too), then add w[k]·prev[col[k], block]
// lane by lane, then fall through at done. FOLD is the per-neighbour body, given the broadcast weight
// in Y5 and the neighbour row's block at 0(R8)(AX*1).
#define NEIGHBOURS(FOLD, label, done) \
	MOVQ R10, DX            \
label:                          \
	CMPQ DX, R13            \
	JGE  done              \
	MOVLQSX (R11)(DX*4), R8 \
	CMPQ R8, R15            \
	JAE  bad                \
	IMULQ R14, R8           \
	ADDQ SI, R8             \
	VBROADCASTSD (R12)(DX*8), Y5 \
	FOLD                    \
	INCQ DX                 \
	JMP  label              \
done:

#define FOLD16 \
	VMULPD 0(R8)(AX*1), Y5, Y6  \
	VADDPD Y6, Y1, Y1           \
	VMULPD 32(R8)(AX*1), Y5, Y7 \
	VADDPD Y7, Y2, Y2           \
	VMULPD 64(R8)(AX*1), Y5, Y6 \
	VADDPD Y6, Y3, Y3           \
	VMULPD 96(R8)(AX*1), Y5, Y7 \
	VADDPD Y7, Y4, Y4

#define FOLD4 \
	VMULPD 0(R8)(AX*1), Y5, Y6 \
	VADDPD Y6, Y1, Y1

#define FOLD1 \
	VMULSD 0(R8)(AX*1), X5, X6 \
	VADDSD X6, X1, X1

// FINISH turns the accumulator acc of the block at byte offset off + AX
// into B's lanes: ((η·A − Y) + α·acc)·inv, then the clamp of negatives to
// +0 where Y13 is all ones (nonNeg). R8 is a's row i, DX y's.
#define FINISH(acc, off) \
	VMULPD off(R8)(AX*1), Y12, Y6 \
	VSUBPD off(DX)(AX*1), Y6, Y6  \
	VMULPD acc, Y11, Y7           \
	VADDPD Y7, Y6, Y6             \
	VMULPD Y9, Y6, acc            \
	VCMPPD $0x11, Y15, acc, Y7    \
	VANDPD Y13, Y7, Y7            \
	VANDNPD acc, Y7, acc          \
	VMOVUPD acc, off(DI)(AX*1)

// ROWPTRS points R8 at row i of a and DX at row i of y (R9 = i·rank·8).
#define ROWPTRS \
	MOVQ a_base+48(FP), R8 \
	ADDQ R9, R8            \
	MOVQ y_base+72(FP), DX \
	ADDQ R9, DX

// func bstepAVX2(dst, prev, a, y []float64, off []int, col []int32, w, deg []float64, lo, hi, rank int, eta, alpha float64, nonNeg bool) (bad int)
//
// Rows [lo, hi) of BStep (graph.go), sixteen, then four, then one column a
// step. A block's sum starts at d_i·P_i and takes the neighbour rows in
// adjacency order, each product rounded before it is added, as the Go body
// does; the finishing arithmetic is the Go body's too, operation for
// operation, so every lane's bits are the Go body's.
//
//	SI prev   R11 col   R12 w   R14 rank·8   R15 n (rows)   BX i
//	R9 i·rank·8   DI dst row i   CX prev row i   R10, R13 row i's [off[i], off[i+1])
//	AX the block's byte offset in the row   DX the neighbour counter
//	Y0 d_i   Y9 inv   Y11 α   Y12 η   Y13 the clamp mask   Y15 +0   X10 2α   X14 1.0
TEXT ·bstepAVX2(SB), NOSPLIT, $0-248
	MOVQ prev_base+24(FP), SI
	MOVQ col_base+120(FP), R11
	MOVQ w_base+144(FP), R12
	MOVQ deg_len+176(FP), R15
	MOVQ rank+208(FP), R14
	SHLQ $3, R14
	MOVQ lo+192(FP), BX
	VBROADCASTSD eta+216(FP), Y12
	VBROADCASTSD alpha+224(FP), Y11
	VMOVSD  alpha+224(FP), X10
	VADDSD  X10, X10, X10
	VXORPD  Y15, Y15, Y15
	VXORPD  Y13, Y13, Y13
	CMPB    nonNeg+232(FP), $0
	JEQ     consts
	VPCMPEQQ Y13, Y13, Y13

consts:
	MOVQ $0x3ff0000000000000, AX
	MOVQ AX, X14

row:
	CMPQ BX, hi+200(FP)
	JGE  done
	MOVQ off_base+96(FP), AX
	MOVQ (AX)(BX*8), R10
	MOVQ 8(AX)(BX*8), R13
	CMPQ R10, R13
	JA   bad
	CMPQ R13, col_len+128(FP)
	JA   bad
	MOVQ BX, R9
	IMULQ R14, R9
	MOVQ dst_base+0(FP), DI
	ADDQ R9, DI
	MOVQ SI, CX
	ADDQ R9, CX
	MOVQ deg_base+168(FP), AX
	VMOVSD (AX)(BX*8), X0
	VMULSD X0, X10, X9
	VADDSD X9, X12, X9
	VDIVSD X9, X14, X9
	VBROADCASTSD X9, Y9
	VBROADCASTSD X0, Y0
	XORQ AX, AX

block16:
	MOVQ R14, DX
	SUBQ AX, DX
	CMPQ DX, $128
	JLT  block4
	VMULPD 0(CX)(AX*1), Y0, Y1
	VMULPD 32(CX)(AX*1), Y0, Y2
	VMULPD 64(CX)(AX*1), Y0, Y3
	VMULPD 96(CX)(AX*1), Y0, Y4
	NEIGHBOURS(FOLD16, n16, n16done)
	ROWPTRS
	FINISH(Y1, 0)
	FINISH(Y2, 32)
	FINISH(Y3, 64)
	FINISH(Y4, 96)
	ADDQ $128, AX
	JMP  block16

block4:
	MOVQ R14, DX
	SUBQ AX, DX
	CMPQ DX, $32
	JLT  block1
	VMULPD 0(CX)(AX*1), Y0, Y1
	NEIGHBOURS(FOLD4, n4, n4done)
	ROWPTRS
	FINISH(Y1, 0)
	ADDQ $32, AX
	JMP  block4

block1:
	CMPQ AX, R14
	JGE  nextrow
	VMULSD 0(CX)(AX*1), X0, X1
	NEIGHBOURS(FOLD1, n1, n1done)
	ROWPTRS
	VMULSD 0(R8)(AX*1), X12, X6
	VSUBSD 0(DX)(AX*1), X6, X6
	VMULSD X1, X11, X7
	VADDSD X7, X6, X6
	VMULSD X9, X6, X1
	VCMPSD $0x11, X15, X1, X7
	VANDPD X13, X7, X7
	VANDNPD X1, X7, X1
	VMOVSD X1, 0(DI)(AX*1)
	ADDQ $8, AX
	JMP  block1

nextrow:
	INCQ BX
	JMP  row

done:
	MOVQ $-1, bad+240(FP)
	VZEROUPPER
	RET

bad:
	MOVQ BX, bad+240(FP)
	VZEROUPPER
	RET
