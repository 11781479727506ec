//go:build amd64

#include "textflag.h"

// The AVX form of matrix.sample (matrix.go states the contract):
// one whole SGD sample a call. A row is walked as dim&^3 elements in
// 32-byte vectors, then dim&3 scalars. Lane j of a vector is element
// i+j, so lane j of the dot product's accumulator is the Go loop's sj.
// Products are rounded before they are added (VMULPD then VADDPD, never
// FMA), which makes every lane the IEEE operation sequence of the scalar
// loop. Everything is VEX-encoded, so no SSE/AVX transition is paid
// between the vector loops and the scalar sigmoid.

// mathx.FastSigmoid's constants: its table covers [-6, 6] in 1024
// intervals, 1024/12 of them to the unit.
DATA sigmoidBound<>+0(SB)/8, $0x4018000000000000    // 6
DATA sigmoidBound<>+8(SB)/8, $0xc018000000000000    // -6
GLOBL sigmoidBound<>(SB), RODATA|NOPTR, $16
DATA sigmoidScale<>+0(SB)/8, $0x4055555555555555    // float64(1024 / 12.0)
GLOBL sigmoidScale<>(SB), RODATA|NOPTR, $8
DATA one<>+0(SB)/8, $0x3ff0000000000000
GLOBL one<>(SB), RODATA|NOPTR, $8
DATA signBit<>+0(SB)/8, $0x8000000000000000
DATA signBit<>+8(SB)/8, $0x0000000000000000
GLOBL signBit<>(SB), RODATA|NOPTR, $16

// func sampleAVX(urow, tgt *float64, dim int, targets []int32, src, grad *float64, lr float64, sigmoid *[1025]float64)
//
// urow is row u of the source matrix, tgt the first element of the
// target matrix (they may be one matrix), targets the row numbers,
// sigmoid the knots of mathx.FastSigmoid. dim >= 1.
TEXT ·sampleAVX(SB), NOSPLIT, $0-80
	MOVQ   urow+0(FP), R8
	MOVQ   tgt+8(FP), R9
	MOVQ   dim+16(FP), R10
	SHLQ   $3, R10                // row length in bytes
	MOVQ   R10, R11
	ANDQ   $~31, R11              // of which whole vectors
	MOVQ   targets_base+24(FP), R12
	MOVQ   targets_len+32(FP), R13 // targets still to do
	MOVQ   src+48(FP), SI
	MOVQ   grad+56(FP), DX
	VMOVSD lr+64(FP), X7
	MOVQ   sigmoid+72(FP), BX
	VMOVSD sigmoidBound<>+0(SB), X8
	VMOVSD sigmoidBound<>+8(SB), X9
	VMOVSD one<>(SB), X10
	VXORPD Y6, Y6, Y6

	// load(u, src); clear(grad). Vector stores, so that the vector loads
	// of the same bytes below are forwarded from them.
	XORQ AX, AX
	CMPQ AX, R11
	JGE  loadtail

loadvec:
	VMOVUPD (R8)(AX*1), Y1
	VMOVUPD Y1, (SI)(AX*1)
	VMOVUPD Y6, (DX)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     loadvec

loadtail:
	CMPQ   AX, R10
	JGE    next
	VMOVSD (R8)(AX*1), X1
	VMOVSD X1, (SI)(AX*1)
	VMOVSD X6, (DX)(AX*1)
	ADDQ   $8, AX
	JMP    loadtail

	// One step per target: row DI against src.
target:
	MOVLQSX (R12), DI
	ADDQ    $4, R12
	IMULQ   R10, DI
	ADDQ    R9, DI

	// x = src·row: s0..s3 are the lanes of Y0.
	VXORPD Y0, Y0, Y0
	XORQ   AX, AX
	CMPQ   AX, R11
	JGE    dotsum

dotvec:
	VMOVUPD (SI)(AX*1), Y1
	VMULPD  (DI)(AX*1), Y1, Y1    // src[i+j] * row[i+j]
	VADDPD  Y1, Y0, Y0            // sj += product
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     dotvec

dotsum:
	// ((s0 + s1) + s2) + s3, scalar adds in that order.
	VEXTRACTF128 $1, Y0, X1       // X1 = s2, s3
	VPERMILPD    $1, X0, X2       // X2 = s1
	VADDSD       X2, X0, X0
	VADDSD       X1, X0, X0
	VPERMILPD    $1, X1, X1       // X1 = s3
	VADDSD       X1, X0, X0

dottail:
	CMPQ   AX, R10
	JGE    sigmoid
	VMOVSD (SI)(AX*1), X1
	VMULSD (DI)(AX*1), X1, X1
	VADDSD X1, X0, X0
	ADDQ   $8, AX
	JMP    dottail

	// X3 = mathx.FastSigmoid(x), clamps included.
sigmoid:
	VUCOMISD X0, X8
	JHI      below                // 6 > x; not taken for x >= 6 and for NaN

saturated:
	VMOVAPD X10, X3
	JMP     coeff

below:
	VUCOMISD X9, X0
	JHI      lookup               // x > -6
	VXORPD   X3, X3, X3
	JMP      coeff

lookup:
	VADDSD      X8, X0, X1
	VMULSD      sigmoidScale<>(SB), X1, X1 // f = (x + 6) * scale
	VCVTTSD2SIQ X1, CX                     // i = int(f)
	CMPQ        CX, $1024
	JGE         saturated                  // x one ulp below 6 can round f up to 1024
	VCVTSI2SDQ  CX, X6, X2
	VSUBSD      X2, X1, X1                 // frac = f - float64(i)
	VMOVSD      (BX)(CX*8), X3             // T[i]
	VMOVSD      8(BX)(CX*8), X2
	VSUBSD      X3, X2, X2                 // T[i+1] - T[i]
	VMULSD      X2, X1, X1
	VADDSD      X1, X3, X3                 // T[i] + frac*(T[i+1] - T[i])

	// g = (1 - sigmoid)*lr for the first target, the positive example,
	// and -sigmoid*lr after it: a negation, not 0 - sigmoid, which
	// differs in the sign of zero.
coeff:
	CMPQ   R13, targets_len+32(FP)
	JNE    negative
	VSUBSD X3, X10, X3
	JMP    scale

negative:
	VXORPD signBit<>(SB), X3, X3

scale:
	VMULSD      X7, X3, X3
	VMOVDDUP    X3, X3
	VINSERTF128 $1, X3, Y3, Y0    // g in every lane; X3 keeps it for the tail

	// grad[i] += g*row[i]; row[i] += g*src[i], row[i] read once, before
	// its store.
	XORQ AX, AX
	CMPQ AX, R11
	JGE  updatetail

updatevec:
	VMOVUPD (DI)(AX*1), Y1        // row, pre-update
	VMULPD  Y1, Y0, Y2            // g * row
	VMOVUPD (DX)(AX*1), Y4
	VADDPD  Y2, Y4, Y4            // grad + g*row
	VMOVUPD Y4, (DX)(AX*1)
	VMULPD  (SI)(AX*1), Y0, Y2    // g * src
	VADDPD  Y2, Y1, Y1            // row + g*src
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     updatevec

updatetail:
	CMPQ   AX, R10
	JGE    stepped
	VMOVSD (DI)(AX*1), X1
	VMULSD X1, X3, X2
	VMOVSD (DX)(AX*1), X4
	VADDSD X2, X4, X4
	VMOVSD X4, (DX)(AX*1)
	VMULSD (SI)(AX*1), X3, X2
	VADDSD X2, X1, X1
	VMOVSD X1, (DI)(AX*1)
	ADDQ   $8, AX
	JMP    updatetail

stepped:
	DECQ R13

next:
	TESTQ R13, R13
	JNZ   target

	// add(u, grad).
	XORQ AX, AX
	CMPQ AX, R11
	JGE  addtail

addvec:
	VMOVUPD (R8)(AX*1), Y1
	VADDPD  (DX)(AX*1), Y1, Y1
	VMOVUPD Y1, (R8)(AX*1)
	ADDQ    $32, AX
	CMPQ    AX, R11
	JLT     addvec

addtail:
	CMPQ   AX, R10
	JGE    done
	VMOVSD (R8)(AX*1), X1
	VADDSD (DX)(AX*1), X1, X1
	VMOVSD X1, (R8)(AX*1)
	ADDQ   $8, AX
	JMP    addtail

done:
	VZEROUPPER
	RET
