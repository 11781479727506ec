//go:build amd64 && !race

#include "textflag.h"

// The AVX half of matrix.step (matrix_norace.go states the contract).
// Both kernels walk n elements, n a positive multiple of 4, one 32-byte
// vector per turn. Lane j of a vector is element i+j, so lane j is the
// Go loop's accumulator sj. Products are rounded before they are added
// (VMULPD then VADDPD, never FMA), which makes every lane the IEEE
// operation sequence of the scalar loop.

// func dotAVX(a, b *float64, n int) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	VXORPD Y0, Y0, Y0             // s0..s3 = +0

dot:
	VMOVUPD (SI), Y1
	VMULPD  (DI), Y1, Y1          // a[i+j] * b[i+j]
	VADDPD  Y1, Y0, Y0            // sj += product
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	JNZ     dot

	// ((s0 + s1) + s2) + s3, scalar adds in that order.
	VEXTRACTF128 $1, Y0, X1       // X1 = s2, s3
	VPERMILPD    $1, X0, X2       // X2 = s1
	VADDSD       X2, X0, X0
	VADDSD       X1, X0, X0
	VPERMILPD    $1, X1, X1       // X1 = s3
	VADDSD       X1, X0, X0
	VZEROUPPER
	MOVSD        X0, ret+24(FP)
	RET

// func updateAVX(row, src, grad *float64, n int, k float64)
//
// grad[i] += k*row[i]; row[i] += k*src[i], row[i] read once, before
// its store.
TEXT ·updateAVX(SB), NOSPLIT, $0-40
	MOVQ         row+0(FP), DI
	MOVQ         src+8(FP), SI
	MOVQ         grad+16(FP), DX
	MOVQ         n+24(FP), CX
	VBROADCASTSD k+32(FP), Y0

update:
	VMOVUPD (DI), Y1              // row, pre-update
	VMULPD  Y1, Y0, Y2            // k * row
	VMOVUPD (DX), Y3
	VADDPD  Y2, Y3, Y3            // grad + k*row
	VMOVUPD Y3, (DX)
	VMULPD  (SI), Y0, Y2          // k * src
	VADDPD  Y2, Y1, Y1            // row + k*src
	VMOVUPD Y1, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	ADDQ    $32, DX
	SUBQ    $4, CX
	JNZ     update
	VZEROUPPER
	RET

// func cpuHasAVX() bool
//
// CPUID.1:ECX bit 28 (AVX) and bit 27 (OSXSAVE), then XCR0 bits 1-2:
// the OS saves XMM and YMM state across context switches.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
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
