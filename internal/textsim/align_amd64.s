#include "textflag.h"

// func alignDiag(out, up, dg *int16, stride int, as, bs *int16, chunks int, best *[16]int16)
//
// Fills 8·chunks cells of one anti-diagonal of the three alignment
// recurrences, eight int16 lanes at a time (see alignLanes). out is the
// diagonal's first row, up and dg the row above it on the two previous
// diagonals; each recurrence's row array lies stride bytes after the
// previous one's (Needleman-Wunsch, Smith-Waterman, Smith-Waterman-Gotoh).
// The loop runs AX from -16·chunks up to 0 over pointers advanced to the
// end of the span, so one ADDQ steps every stream and ends the loop.
TEXT ·alignDiag(SB), NOSPLIT, $0-64
	MOVQ best+56(FP), BX
	MOVOU (BX), X13      // running Smith-Waterman maxima
	MOVOU 16(BX), X14    // running Smith-Waterman-Gotoh maxima
	PCMPEQW X12, X12     // -1
	MOVO X12, X11
	PADDW X11, X11       // -2
	PXOR X10, X10        // 0

	MOVQ chunks+48(FP), AX
	SHLQ $4, AX
	MOVQ stride+24(FP), R8
	MOVQ out+0(FP), DI
	MOVQ up+8(FP), SI
	MOVQ dg+16(FP), DX
	MOVQ as+32(FP), R9
	MOVQ bs+40(FP), R10
	ADDQ AX, DI
	ADDQ AX, SI
	ADDQ AX, DX
	ADDQ AX, R9
	ADDQ AX, R10
	LEAQ (DI)(R8*1), R11 // Smith-Waterman rows
	LEAQ (SI)(R8*1), R12
	LEAQ (DX)(R8*1), R13
	LEAQ (R11)(R8*1), BX // Smith-Waterman-Gotoh rows
	LEAQ (R12)(R8*1), CX
	LEAQ (R13)(R8*1), R8
	NEGQ AX

loop:
	// s = +1 where the slots match, -1 elsewhere; X2 = 2s.
	MOVOU (R9)(AX*1), X0
	MOVOU (R10)(AX*1), X1
	PCMPEQW X1, X0
	PADDW X0, X0
	MOVO X12, X1
	PSUBW X0, X1
	MOVO X1, X2
	PADDW X2, X2

	// Needleman-Wunsch: max(diag+s, max(up, left)-1).
	MOVOU (DX)(AX*1), X3
	PADDW X1, X3
	MOVOU (SI)(AX*1), X4
	MOVOU 2(SI)(AX*1), X5
	PMAXSW X5, X4
	PADDW X12, X4
	PMAXSW X4, X3
	MOVOU X3, (DI)(AX*1)

	// Smith-Waterman: max(diag+2s, max(up, left)-2, 0).
	MOVOU (R13)(AX*1), X3
	PADDW X2, X3
	MOVOU (R12)(AX*1), X4
	MOVOU 2(R12)(AX*1), X5
	PMAXSW X5, X4
	PADDW X11, X4
	PMAXSW X4, X3
	PMAXSW X10, X3
	MOVOU X3, (R11)(AX*1)
	PMAXSW X3, X13

	// Smith-Waterman-Gotoh: max(diag+2s, max(up, left)-1, 0).
	MOVOU (R8)(AX*1), X3
	PADDW X2, X3
	MOVOU (CX)(AX*1), X4
	MOVOU 2(CX)(AX*1), X5
	PMAXSW X5, X4
	PADDW X12, X4
	PMAXSW X4, X3
	PMAXSW X10, X3
	MOVOU X3, (BX)(AX*1)
	PMAXSW X3, X14

	ADDQ $16, AX
	JNZ loop

	MOVQ best+56(FP), BX
	MOVOU X13, (BX)
	MOVOU X14, 16(BX)
	RET
