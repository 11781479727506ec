//go:build amd64

#include "textflag.h"

// The AVX forms of RowTable.Dots and RowTable.SerialDots (rowtable.go
// states the contract). A block is dim slices of 16 doubles, slice d
// holding element d of the block's 16 rows, so a vector lane is a row
// and every lane runs the scalar loop's IEEE operation sequence:
// element d of the vector is broadcast, multiplied into the slice and
// the rounded products added (VMULPD then VADDPD, never FMA).
// Accumulators start at +0 and the first product is added to it, as in
// the Go loops, which matters for the sign of a zero result.

// func rowSerialDotsAVX(block, x *float64, dim int, out *[16]float64)
//
// Y0..Y3 are rows 0-3, 4-7, 8-11, 12-15; one add chain per row, in
// index order. dim >= 1.
TEXT ·rowSerialDotsAVX(SB), NOSPLIT, $0-32
	MOVQ   block+0(FP), SI
	MOVQ   x+8(FP), DX
	MOVQ   dim+16(FP), CX
	MOVQ   out+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

serial:
	VBROADCASTSD (DX), Y4
	VMULPD       (SI), Y4, Y5
	VMULPD       32(SI), Y4, Y6
	VMULPD       64(SI), Y4, Y7
	VMULPD       96(SI), Y4, Y8
	VADDPD       Y5, Y0, Y0
	VADDPD       Y6, Y1, Y1
	VADDPD       Y7, Y2, Y2
	VADDPD       Y8, Y3, Y3
	ADDQ         $128, SI
	ADDQ         $8, DX
	DECQ         CX
	JNZ          serial

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VZEROUPPER
	RET

// func rowDotsAVX(block, x *float64, dim int, out *[16]float64)
//
// mathx.Dot's order, eight rows a pass: Y0..Y3 are s0..s3 of rows 0-3,
// Y4..Y7 of rows 4-7 (the second pass: rows 8-11 and 12-15), summed
// ((s0+s1)+s2)+s3 before the dim&3 trailing products. dim >= 1.
TEXT ·rowDotsAVX(SB), NOSPLIT, $0-32
	MOVQ block+0(FP), SI
	MOVQ x+8(FP), DX
	MOVQ dim+16(FP), R8
	MOVQ out+24(FP), DI
	MOVQ R8, R9
	ANDQ $3, R9                  // trailing elements
	SHRQ $2, R8                  // groups of four
	MOVQ $2, R10                 // passes

pass:
	MOVQ   SI, AX
	MOVQ   DX, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   R8, CX
	TESTQ  CX, CX
	JZ     sum

four:
	VBROADCASTSD (BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VMULPD       (AX), Y8, Y12
	VMULPD       32(AX), Y8, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y4, Y4
	VMULPD       128(AX), Y9, Y14
	VMULPD       160(AX), Y9, Y15
	VADDPD       Y14, Y1, Y1
	VADDPD       Y15, Y5, Y5
	VMULPD       256(AX), Y10, Y12
	VMULPD       288(AX), Y10, Y13
	VADDPD       Y12, Y2, Y2
	VADDPD       Y13, Y6, Y6
	VMULPD       384(AX), Y11, Y14
	VMULPD       416(AX), Y11, Y15
	VADDPD       Y14, Y3, Y3
	VADDPD       Y15, Y7, Y7
	ADDQ         $512, AX
	ADDQ         $32, BX
	DECQ         CX
	JNZ          four

sum:
	VADDPD Y1, Y0, Y0
	VADDPD Y5, Y4, Y4
	VADDPD Y2, Y0, Y0
	VADDPD Y6, Y4, Y4
	VADDPD Y3, Y0, Y0
	VADDPD Y7, Y4, Y4
	MOVQ   R9, CX
	TESTQ  CX, CX
	JZ     store

tail:
	VBROADCASTSD (BX), Y8
	VMULPD       (AX), Y8, Y12
	VMULPD       32(AX), Y8, Y13
	VADDPD       Y12, Y0, Y0
	VADDPD       Y13, Y4, Y4
	ADDQ         $128, AX
	ADDQ         $8, BX
	DECQ         CX
	JNZ          tail

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y4, 32(DI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	DECQ    R10
	JNZ     pass
	VZEROUPPER
	RET

// func CPUHasAVX() bool
//
// CPUID.1:ECX bit 28 (AVX) and bit 27 (OSXSAVE), then XCR0 bits 1-2:
// the OS saves XMM and YMM state across context switches.
TEXT ·CPUHasAVX(SB), NOSPLIT, $0-1
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
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET
