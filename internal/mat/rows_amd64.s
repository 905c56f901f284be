//go:build !race

#include "textflag.h"

// lanemask<> holds two tables of 32-byte lane masks for VMASKMOVPD: at
// offset 32·s the lanes ≥ s (s = 0…3), at 128 + 32·t the lanes < t
// (t = 1…3; the t = 0 slot is unused).
DATA lanemask<>+0(SB)/8, $-1
DATA lanemask<>+8(SB)/8, $-1
DATA lanemask<>+16(SB)/8, $-1
DATA lanemask<>+24(SB)/8, $-1
DATA lanemask<>+32(SB)/8, $0
DATA lanemask<>+40(SB)/8, $-1
DATA lanemask<>+48(SB)/8, $-1
DATA lanemask<>+56(SB)/8, $-1
DATA lanemask<>+64(SB)/8, $0
DATA lanemask<>+72(SB)/8, $0
DATA lanemask<>+80(SB)/8, $-1
DATA lanemask<>+88(SB)/8, $-1
DATA lanemask<>+96(SB)/8, $0
DATA lanemask<>+104(SB)/8, $0
DATA lanemask<>+112(SB)/8, $0
DATA lanemask<>+120(SB)/8, $-1
DATA lanemask<>+128(SB)/8, $0
DATA lanemask<>+136(SB)/8, $0
DATA lanemask<>+144(SB)/8, $0
DATA lanemask<>+152(SB)/8, $0
DATA lanemask<>+160(SB)/8, $-1
DATA lanemask<>+168(SB)/8, $0
DATA lanemask<>+176(SB)/8, $0
DATA lanemask<>+184(SB)/8, $0
DATA lanemask<>+192(SB)/8, $-1
DATA lanemask<>+200(SB)/8, $-1
DATA lanemask<>+208(SB)/8, $0
DATA lanemask<>+216(SB)/8, $0
DATA lanemask<>+224(SB)/8, $-1
DATA lanemask<>+232(SB)/8, $-1
DATA lanemask<>+240(SB)/8, $-1
DATA lanemask<>+248(SB)/8, $0
GLOBL lanemask<>(SB), RODATA|NOPTR, $256

// func axpyRowsAVX2(dst, x, b []float64)
//
// dst[j] += x[k]·b[k·n + j] for ascending k, n = len(dst), with dst[j] held
// in a register across k: the Go body's sequence of roundings on every
// column (a product, then a sum; never fused). Columns go sixteen, then
// four, then one at a time.
//
//	DI dst   SI x   DX b   CX n   R8 len(x)   R9 n·8 (a b row's bytes)
//	AX the first column of the current block   R12 its b column
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ b_base+48(FP), DX
	MOVQ CX, R9
	SHLQ $3, R9
	XORQ AX, AX

axpy16:
	MOVQ CX, R10
	SUBQ AX, R10
	CMPQ R10, $16
	JLT  axpy4
	LEAQ (DI)(AX*8), R11
	VMOVUPD 0(R11), Y0
	VMOVUPD 32(R11), Y1
	VMOVUPD 64(R11), Y2
	VMOVUPD 96(R11), Y3
	LEAQ (DX)(AX*8), R12
	XORQ BX, BX

axpy16k:
	CMPQ BX, R8
	JGE  axpy16done
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD  0(R12), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  32(R12), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  64(R12), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  96(R12), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ R9, R12
	INCQ BX
	JMP  axpy16k

axpy16done:
	VMOVUPD Y0, 0(R11)
	VMOVUPD Y1, 32(R11)
	VMOVUPD Y2, 64(R11)
	VMOVUPD Y3, 96(R11)
	ADDQ $16, AX
	JMP  axpy16

axpy4:
	CMPQ R10, $4
	JLT  axpy1
	LEAQ (DI)(AX*8), R11
	VMOVUPD 0(R11), Y0
	LEAQ (DX)(AX*8), R12
	XORQ BX, BX

axpy4k:
	CMPQ BX, R8
	JGE  axpy4done
	VBROADCASTSD (SI)(BX*8), Y4
	VMULPD  0(R12), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ R9, R12
	INCQ BX
	JMP  axpy4k

axpy4done:
	VMOVUPD Y0, 0(R11)
	ADDQ $4, AX
	SUBQ $4, R10
	JMP  axpy4

axpy1:
	CMPQ AX, CX
	JGE  axpyret
	VMOVSD (DI)(AX*8), X0
	LEAQ (DX)(AX*8), R12
	XORQ BX, BX

axpy1k:
	CMPQ BX, R8
	JGE  axpy1done
	VMOVSD (SI)(BX*8), X4
	VMULSD (R12), X4, X5
	VADDSD X5, X0, X0
	ADDQ R9, R12
	INCQ BX
	JMP  axpy1k

axpy1done:
	VMOVSD X0, (DI)(AX*8)
	INCQ AX
	JMP  axpy1

axpyret:
	VZEROUPPER
	RET

// func gramAddUpperAVX2(g, rows []float64, r int)
//
// g[i, j] += rows[k, i]·rows[k, j] for j ≥ i and ascending k, with the
// g[i, ·] block in registers across k: the Go body's roundings on every
// entry. Row i's entries go in blocks of four columns from column i&^3, up
// to four blocks per sweep over the rows. The first block's lanes left of
// column i, and the last block's lanes right of column r−1, are masked out
// of the loads and stores of g, so the lower triangle is never touched; the
// last block also masks its row loads, so nothing past a row is read.
//
//	DI g   SI rows   CX r   BX the number of rows   R9 r·8
//	R10 i   R11 the block's first column   R12 &g[i, R11]
//	Y13 the first block's g mask (then all lanes)   Y12 the last block's row mask
TEXT ·gramAddUpperAVX2(SB), NOSPLIT, $0-56
	MOVQ g_base+0(FP), DI
	MOVQ rows_base+24(FP), SI
	MOVQ rows_len+32(FP), AX
	MOVQ r+48(FP), CX
	XORQ DX, DX
	DIVQ CX
	MOVQ AX, BX
	MOVQ CX, R9
	SHLQ $3, R9
	LEAQ lanemask<>(SB), R15
	XORQ R10, R10

gramrow:
	CMPQ R10, CX
	JGE  gramret
	MOVQ R10, R11
	ANDQ $-4, R11
	MOVQ R10, AX
	ANDQ $3, AX
	SHLQ $5, AX
	VMOVDQU (R15)(AX*1), Y13
	MOVQ R10, AX
	IMULQ CX, AX
	ADDQ R11, AX
	LEAQ (DI)(AX*8), R12

gram16:
	MOVQ CX, AX
	SUBQ R11, AX
	CMPQ AX, $16
	JLT  gram4
	VMASKMOVPD 0(R12), Y13, Y0
	VMOVUPD 32(R12), Y1
	VMOVUPD 64(R12), Y2
	VMOVUPD 96(R12), Y3
	LEAQ (SI)(R10*8), R13
	LEAQ (SI)(R11*8), R14
	MOVQ BX, DX

gram16k:
	TESTQ DX, DX
	JEQ   gram16done
	VBROADCASTSD (R13), Y4
	VMULPD  0(R14), Y4, Y5
	VADDPD  Y5, Y0, Y0
	VMULPD  32(R14), Y4, Y6
	VADDPD  Y6, Y1, Y1
	VMULPD  64(R14), Y4, Y7
	VADDPD  Y7, Y2, Y2
	VMULPD  96(R14), Y4, Y8
	VADDPD  Y8, Y3, Y3
	ADDQ R9, R13
	ADDQ R9, R14
	DECQ DX
	JMP  gram16k

gram16done:
	VMASKMOVPD Y0, Y13, 0(R12)
	VMOVUPD Y1, 32(R12)
	VMOVUPD Y2, 64(R12)
	VMOVUPD Y3, 96(R12)
	VPCMPEQQ Y13, Y13, Y13
	ADDQ $16, R11
	ADDQ $128, R12
	JMP  gram16

gram4:
	CMPQ AX, $4
	JLT  gramtail
	VMASKMOVPD 0(R12), Y13, Y0
	LEAQ (SI)(R10*8), R13
	LEAQ (SI)(R11*8), R14
	MOVQ BX, DX

gram4k:
	TESTQ DX, DX
	JEQ   gram4done
	VBROADCASTSD (R13), Y4
	VMULPD  0(R14), Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ R9, R13
	ADDQ R9, R14
	DECQ DX
	JMP  gram4k

gram4done:
	VMASKMOVPD Y0, Y13, 0(R12)
	VPCMPEQQ Y13, Y13, Y13
	ADDQ $4, R11
	ADDQ $32, R12
	MOVQ CX, AX
	SUBQ R11, AX
	JMP  gram4

gramtail:
	TESTQ AX, AX
	JEQ   gramnext
	SHLQ $5, AX
	VMOVDQU 128(R15)(AX*1), Y12
	VANDPD Y12, Y13, Y13
	VMASKMOVPD 0(R12), Y13, Y0
	LEAQ (SI)(R10*8), R13
	LEAQ (SI)(R11*8), R14
	MOVQ BX, DX

gramtailk:
	TESTQ DX, DX
	JEQ   gramtaildone
	VBROADCASTSD (R13), Y4
	VMASKMOVPD 0(R14), Y12, Y5
	VMULPD  Y5, Y4, Y5
	VADDPD  Y5, Y0, Y0
	ADDQ R9, R13
	ADDQ R9, R14
	DECQ DX
	JMP  gramtailk

gramtaildone:
	VMASKMOVPD Y0, Y13, 0(R12)

gramnext:
	INCQ R10
	JMP  gramrow

gramret:
	VZEROUPPER
	RET
