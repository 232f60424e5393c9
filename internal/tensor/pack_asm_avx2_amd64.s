//go:build amd64 && !purego

#include "textflag.h"

// The ISAAVX2 rung of the dispatch ladder: one dense register tile and one
// compacted-row kernel at two widths. None of them tests a packed A value —
// the Go side (pack.go) routes a strip with no zero α·a to the dense tile
// and drops the zero terms of every other row before the row kernels see
// them — so the inner loops carry no data-dependent branch.
//
// Deliberately NO FMA (VFMADD*): a fused multiply-add rounds once where the
// scalar reference rounds twice, which would break the bit-identity
// contract every convergence-invariance test pins. Every lane computes
// c += av*b with VMULPS then VADDPS, which round exactly like scalar
// MULSS/ADDSS; lanes are distinct j columns and l ascends, so every element
// matches the pure-Go and SSE2 kernels bit for bit. Operand order (av first
// in the multiply, c first in the add) is the scalar kernels' too, which
// fixes which NaN payload survives.

// func dense8x8(strip, b, c *float32, kc, ldbBytes, ldcBytes int, zero bool)
//
// 8-row × 8-col tile over a strip that holds no zero: Y0..Y7 are the C block
// (one 8-wide vector per row) for the whole k loop; each k step loads one B
// row and broadcasts the eight packed A values against it.
TEXT ·dense8x8(SB), NOSPLIT, $0-49
	MOVQ strip+0(FP), SI
	MOVQ b+8(FP), BX
	MOVQ c+16(FP), R8
	MOVQ kc+24(FP), CX
	MOVQ ldbBytes+32(FP), DX
	MOVQ ldcBytes+40(FP), R9

	// Row-address multiples of ldc for the strided C block.
	LEAQ (R9)(R9*2), R12  // 3*ldc
	LEAQ (R9)(R9*4), R13  // 5*ldc
	LEAQ (R12)(R9*4), R14 // 7*ldc

	CMPB zero+48(FP), $0
	JNE  dclear
	VMOVUPS (R8), Y0
	VMOVUPS (R8)(R9*1), Y1
	VMOVUPS (R8)(R9*2), Y2
	VMOVUPS (R8)(R12*1), Y3
	VMOVUPS (R8)(R9*4), Y4
	VMOVUPS (R8)(R13*1), Y5
	VMOVUPS (R8)(R12*2), Y6
	VMOVUPS (R8)(R14*1), Y7
	JMP     dloop

dclear:
	// First k panel of a β = 0 product: start from +0, never read C.
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

dloop:
	VMOVUPS      (BX), Y8 // b[j..j+7]
	VBROADCASTSS (SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y0, Y0
	VBROADCASTSS 4(SI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y1, Y1
	VBROADCASTSS 8(SI), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y2, Y2
	VBROADCASTSS 12(SI), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y3, Y3
	VBROADCASTSS 16(SI), Y9
	VMULPS       Y8, Y9, Y9
	VADDPS       Y9, Y4, Y4
	VBROADCASTSS 20(SI), Y10
	VMULPS       Y8, Y10, Y10
	VADDPS       Y10, Y5, Y5
	VBROADCASTSS 24(SI), Y11
	VMULPS       Y8, Y11, Y11
	VADDPS       Y11, Y6, Y6
	VBROADCASTSS 28(SI), Y12
	VMULPS       Y8, Y12, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $32, SI // next packed A octet
	ADDQ         DX, BX  // next B row
	DECQ         CX
	JNZ          dloop

	VMOVUPS Y0, (R8)
	VMOVUPS Y1, (R8)(R9*1)
	VMOVUPS Y2, (R8)(R9*2)
	VMOVUPS Y3, (R8)(R12*1)
	VMOVUPS Y4, (R8)(R9*4)
	VMOVUPS Y5, (R8)(R13*1)
	VMOVUPS Y6, (R8)(R12*2)
	VMOVUPS Y7, (R8)(R14*1)
	VZEROUPPER
	RET

// func sparseRow64(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool)
//
// One C row × 64 columns against the row's cnt non-zero terms: vals[i] is
// α·a and ls[i] its k index within the panel, ascending. Y0..Y7 are the C
// segment; each term broadcasts its value against the 64 floats of B row
// ls[i]. cnt may be 0 (a whole-zero row): C is then stored back as loaded,
// or as +0 when zero is set.
TEXT ·sparseRow64(SB), NOSPLIT, $0-49
	MOVQ vals+0(FP), SI
	MOVQ ls+8(FP), DI
	MOVQ cnt+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ ldbBytes+32(FP), DX
	MOVQ c+40(FP), R8

	CMPB zero+48(FP), $0
	JNE  wclear
	VMOVUPS (R8), Y0
	VMOVUPS 32(R8), Y1
	VMOVUPS 64(R8), Y2
	VMOVUPS 96(R8), Y3
	VMOVUPS 128(R8), Y4
	VMOVUPS 160(R8), Y5
	VMOVUPS 192(R8), Y6
	VMOVUPS 224(R8), Y7
	JMP     wtest

wclear:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

wtest:
	TESTQ CX, CX
	JZ    wdone

wloop:
	MOVLQSX      (DI), AX
	IMULQ        DX, AX
	ADDQ         BX, AX // B row ls[i]
	VBROADCASTSS (SI), Y8
	VMULPS       (AX), Y8, Y9
	VADDPS       Y9, Y0, Y0
	VMULPS       32(AX), Y8, Y10
	VADDPS       Y10, Y1, Y1
	VMULPS       64(AX), Y8, Y11
	VADDPS       Y11, Y2, Y2
	VMULPS       96(AX), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       128(AX), Y8, Y9
	VADDPS       Y9, Y4, Y4
	VMULPS       160(AX), Y8, Y10
	VADDPS       Y10, Y5, Y5
	VMULPS       192(AX), Y8, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       224(AX), Y8, Y12
	VADDPS       Y12, Y7, Y7
	ADDQ         $4, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          wloop

wdone:
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, 64(R8)
	VMOVUPS Y3, 96(R8)
	VMOVUPS Y4, 128(R8)
	VMOVUPS Y5, 160(R8)
	VMOVUPS Y6, 192(R8)
	VMOVUPS Y7, 224(R8)
	VZEROUPPER
	RET

// func sparseRow8(vals *float32, ls *int32, cnt int, b *float32, ldbBytes int, c *float32, zero bool)
//
// sparseRow64 at one vector: the 8-column tiles left of a 64-column walk.
TEXT ·sparseRow8(SB), NOSPLIT, $0-49
	MOVQ vals+0(FP), SI
	MOVQ ls+8(FP), DI
	MOVQ cnt+16(FP), CX
	MOVQ b+24(FP), BX
	MOVQ ldbBytes+32(FP), DX
	MOVQ c+40(FP), R8

	VXORPS Y0, Y0, Y0
	CMPB   zero+48(FP), $0
	JNE    ntest
	VMOVUPS (R8), Y0

ntest:
	TESTQ CX, CX
	JZ    ndone

nloop:
	MOVLQSX      (DI), AX
	IMULQ        DX, AX
	VBROADCASTSS (SI), Y8
	VMULPS       (BX)(AX*1), Y8, Y9
	VADDPS       Y9, Y0, Y0
	ADDQ         $4, SI
	ADDQ         $4, DI
	DECQ         CX
	JNZ          nloop

ndone:
	VMOVUPS Y0, (R8)
	VZEROUPPER
	RET
