//go:build amd64 && !purego

#include "textflag.h"

// func micro4x8(strip, b, c0, c1, c2, c3 *float32, kc, ldbBytes int, zero bool)
//
// 4-row × 8-col SGEMM register tile. X0..X7 hold the C block for the whole
// k loop (two 4-wide vectors per row); each k step loads one packed B row
// pair, broadcasts the four packed A values (alpha already folded in), and
// accumulates c += av*b per lane. A row with av == 0 is skipped, matching
// the scalar kernel's short-circuit; the unordered (NaN) compare result
// falls through to the multiply so NaN propagation is identical too. With
// zero set the block starts from +0 and C is written without being read.
TEXT ·micro4x8(SB), NOSPLIT, $0-65
	MOVQ strip+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ c0+16(FP), R8
	MOVQ c1+24(FP), R9
	MOVQ c2+32(FP), R10
	MOVQ c3+40(FP), R11
	MOVQ kc+48(FP), CX
	MOVQ ldbBytes+56(FP), DX

	XORPS X14, X14 // constant zero for the av == 0 test

	// The 4×8 C block lives in X0..X7: loaded, or +0 on the first k panel
	// of a β = 0 product.
	CMPB zero+64(FP), $0
	JNE  clear
	MOVUPS (R8), X0
	MOVUPS 16(R8), X1
	MOVUPS (R9), X2
	MOVUPS 16(R9), X3
	MOVUPS (R10), X4
	MOVUPS 16(R10), X5
	MOVUPS (R11), X6
	MOVUPS 16(R11), X7
	JMP    loop

clear:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7

loop:
	MOVUPS (BX), X8    // b[j..j+3]
	MOVUPS 16(BX), X9  // b[j+4..j+7]

	// Row 0: av = strip[l*4+0]
	MOVSS   (SI), X10
	UCOMISS X14, X10
	JP      row0do  // unordered: av is NaN, compute
	JE      row1    // av == 0: skip row 0

row0do:
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X0
	MULPS  X9, X11
	ADDPS  X11, X1

row1:
	MOVSS   4(SI), X10
	UCOMISS X14, X10
	JP      row1do
	JE      row2

row1do:
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X2
	MULPS  X9, X11
	ADDPS  X11, X3

row2:
	MOVSS   8(SI), X10
	UCOMISS X14, X10
	JP      row2do
	JE      row3

row2do:
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X4
	MULPS  X9, X11
	ADDPS  X11, X5

row3:
	MOVSS   12(SI), X10
	UCOMISS X14, X10
	JP      row3do
	JE      next

row3do:
	SHUFPS $0x00, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	ADDPS  X10, X6
	MULPS  X9, X11
	ADDPS  X11, X7

next:
	ADDQ $16, SI // next packed A quad
	ADDQ DX, BX  // next packed B row
	DECQ CX
	JNZ  loop

	// Store the C block back.
	MOVUPS X0, (R8)
	MOVUPS X1, 16(R8)
	MOVUPS X2, (R9)
	MOVUPS X3, 16(R9)
	MOVUPS X4, (R10)
	MOVUPS X5, 16(R10)
	MOVUPS X6, (R11)
	MOVUPS X7, 16(R11)
	RET
