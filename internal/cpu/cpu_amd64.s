#include "textflag.h"

// func probeAVX2() bool
//
// CPUID.1:ECX bits 27 (OSXSAVE) and 28 (AVX), XCR0 bits 1-2 (the OS saves
// the XMM and YMM state) and CPUID.7.0:EBX bit 5 (AVX2).
TEXT ·probeAVX2(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JLO  no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $0x18000000, CX
	CMPL CX, $0x18000000
	JNE  no
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $0x20, BX
	JEQ  no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
