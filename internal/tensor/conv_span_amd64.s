//go:build amd64

#include "textflag.h"

// ACC adds one tap-row's three taps (dx = 0, 1, 2; coefficients broadcast
// in Y8-Y10) into one accumulator vector whose dx=0 input lanes start at
// off(SI). Multiply and add stay separate instructions (no FMA), and the
// three adds hit the accumulator in dx order, so every lane's float
// operation sequence is the scalar kernel's.
#define ACC(off, acc) \
	VMULPS off(SI), Y8, Y11      \
	VADDPS Y11, acc, acc         \
	VMULPS (off+4)(SI), Y9, Y12  \
	VADDPS Y12, acc, acc         \
	VMULPS (off+8)(SI), Y10, Y13 \
	VADDPS Y13, acc, acc

// func conv33Flat(dst, pin, w *float32, cin, pch, pplane, pw, nvec int64, bias float32)
//
// nvec (1..8) consecutive 8-lane vectors of one (b, oc, z) output plane laid
// out at the padded pitch. Accumulators Y0-Y7 stay in registers across the
// whole ic -> dz -> dy tap loop; each tap-row broadcasts its three
// coefficients and enters the unrolled accumulator chain at the nvec-th
// vector, falling through to vector 0. All nvec vectors are stored whole.
TEXT ·conv33Flat(SB), NOSPLIT, $0-68
	MOVQ dst+0(FP), DI
	MOVQ pin+8(FP), BX
	MOVQ w+16(FP), DX
	MOVQ cin+24(FP), R8
	MOVQ pch+32(FP), R13
	SHLQ $2, R13
	MOVQ pplane+40(FP), R12
	SHLQ $2, R12
	MOVQ pw+48(FP), R11
	SHLQ $2, R11
	MOVQ nvec+56(FP), R14

	VBROADCASTSS bias+64(FP), Y0
	VMOVAPS      Y0, Y1
	VMOVAPS      Y0, Y2
	VMOVAPS      Y0, Y3
	VMOVAPS      Y0, Y4
	VMOVAPS      Y0, Y5
	VMOVAPS      Y0, Y6
	VMOVAPS      Y0, Y7

ic_loop:
	MOVQ BX, AX
	MOVQ $3, R9

dz_loop:
	MOVQ AX, SI
	MOVQ $3, R10

dy_loop:
	VBROADCASTSS (DX), Y8
	VBROADCASTSS 4(DX), Y9
	VBROADCASTSS 8(DX), Y10
	ADDQ         $12, DX
	CMPQ         R14, $8
	JEQ          v8
	CMPQ         R14, $7
	JEQ          v7
	CMPQ         R14, $6
	JEQ          v6
	CMPQ         R14, $5
	JEQ          v5
	CMPQ         R14, $4
	JEQ          v4
	CMPQ         R14, $3
	JEQ          v3
	CMPQ         R14, $2
	JEQ          v2
	JMP          v1

v8:
	ACC(224, Y7)

v7:
	ACC(192, Y6)

v6:
	ACC(160, Y5)

v5:
	ACC(128, Y4)

v4:
	ACC(96, Y3)

v3:
	ACC(64, Y2)

v2:
	ACC(32, Y1)

v1:
	ACC(0, Y0)

	ADDQ R11, SI
	DECQ R10
	JNZ  dy_loop

	ADDQ R12, AX
	DECQ R9
	JNZ  dz_loop

	ADDQ R13, BX
	DECQ R8
	JNZ  ic_loop

	VMOVUPS Y0, (DI)
	CMPQ    R14, $2
	JLT     done
	VMOVUPS Y1, 32(DI)
	JEQ     done
	VMOVUPS Y2, 64(DI)
	CMPQ    R14, $4
	JLT     done
	VMOVUPS Y3, 96(DI)
	JEQ     done
	VMOVUPS Y4, 128(DI)
	CMPQ    R14, $6
	JLT     done
	VMOVUPS Y5, 160(DI)
	JEQ     done
	VMOVUPS Y6, 192(DI)
	CMPQ    R14, $8
	JLT     done
	VMOVUPS Y7, 224(DI)

done:
	VZEROUPPER
	RET

// WTAP adds one in-plane tap's products for the current position: the
// input at mem, broadcast, times the position's eight gradOut lanes (Y9),
// into the tap's accumulator. Multiply and add stay separate (no FMA).
#define WTAP(mem, t, acc) \
	VBROADCASTSS mem, t \
	VMULPS       Y9, t, t \
	VADDPS       t, acc, acc

// func convBwdW33(dst, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64)
//
// Accumulators Y0-Y8 (tap k = dy*3+dx) stay in registers across all d*h*w
// output positions, walked in (z, y, x) order; each position loads its
// eight gradOut lanes once and issues nine broadcast-multiply-adds. The
// input reads stay inside the padded channel: rows y..y+2 and columns
// x..x+2 of plane z of the (d+2, h+2, w+2) block that pin starts, tap dx
// of position x at (x+dx)*istride (DI), the rows at SI, CX = SI + prow and
// R15 = SI + 2*prow. Strides are in bytes.
TEXT ·convBwdW33(SB), NOSPLIT, $0-96
	MOVQ pin+8(FP), BX
	MOVQ gt+16(FP), DX
	MOVQ d+24(FP), R8
	MOVQ h+32(FP), R13
	MOVQ w+40(FP), R14
	MOVQ pplane+48(FP), R12
	MOVQ prow+56(FP), R11
	MOVQ istride+64(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8

wz_loop:
	MOVQ BX, AX
	MOVQ R13, R9

wy_loop:
	MOVQ AX, SI
	MOVQ R14, R10

wx_loop:
	VMOVUPS (DX), Y9
	LEAQ    (SI)(R11*1), CX
	LEAQ    (SI)(R11*2), R15
	WTAP((SI), Y10, Y0)
	WTAP((SI)(DI*1), Y11, Y1)
	WTAP((SI)(DI*2), Y12, Y2)
	WTAP((CX), Y13, Y3)
	WTAP((CX)(DI*1), Y14, Y4)
	WTAP((CX)(DI*2), Y15, Y5)
	WTAP((R15), Y10, Y6)
	WTAP((R15)(DI*1), Y11, Y7)
	WTAP((R15)(DI*2), Y12, Y8)
	ADDQ    DI, SI
	ADDQ    gstride+72(FP), DX
	DECQ    R10
	JNZ     wx_loop

	ADDQ growSkip+80(FP), DX
	ADDQ R11, AX
	DECQ R9
	JNZ  wy_loop

	ADDQ gplaneSkip+88(FP), DX
	ADDQ R12, BX
	DECQ R8
	JNZ  wz_loop

	MOVQ    dst+0(FP), DI
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VZEROUPPER
	RET

// LTAP3 adds one output position's three taps of the current (ic, dz, dy)
// tap-row: the inputs at a0, a1, a2 (dx = 0, 1, 2), each broadcast, times
// that tap's eight output-channel weights (Y12-Y14), into the position's
// accumulator, in dx order. Multiply and add stay separate (no FMA).
#define LTAP3(a0, a1, a2, acc) \
	VBROADCASTSS a0, Y15       \
	VMULPS       Y12, Y15, Y15 \
	VADDPS       Y15, acc, acc \
	VBROADCASTSS a1, Y15       \
	VMULPS       Y13, Y15, Y15 \
	VADDPS       Y15, acc, acc \
	VBROADCASTSS a2, Y15       \
	VMULPS       Y14, Y15, Y15 \
	VADDPS       Y15, acc, acc

// LRES adds the residual at SI to an accumulator and steps SI one position.
#define LRES(acc) \
	VADDPS (SI), acc, acc \
	ADDQ   R11, SI

// LOUT stores max(floor, acc) at DI and steps DI one position. The floor
// (Y15) is the first source, so a NaN in acc, or a zero of either sign
// against a +0 floor, is what comes out, as tensor.relu keeps them; a -Inf
// floor passes every acc through unchanged.
#define LOUT(acc) \
	VMAXPS  acc, Y15, acc \
	VMOVUPS acc, (DI)     \
	ADDQ    R11, DI

// func convRow33(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32)
//
// n (1..12) consecutive output positions of one row, eight output channels
// each, in channel-blocked layout; strides are in bytes. Accumulators Y0-Y11
// start at the bias vector and stay in registers across the whole
// ic -> dz -> dy tap loop. Each tap-row loads its three weight vectors and
// enters the unrolled position chain at the n-th position, falling through
// to position 0; input index i of the row (position p, tap dx: i = p+dx)
// is addressed from bases SI, R13, R14, DI at i = 0, 4, 8, 12 plus 0, 1, 2
// or 3 strides (R11, R11*2, R12 = 3*R11). The epilogue is max(floor, .):
// ReLU at a +0 floor, none at -Inf.
TEXT ·convRow33(SB), NOSPLIT, $0-92
	MOVQ pin+8(FP), BX
	MOVQ w+16(FP), DX
	MOVQ bias+24(FP), AX
	MOVQ cin+40(FP), R8
	MOVQ istride+48(FP), R11
	LEAQ (R11)(R11*2), R12
	MOVQ prow+56(FP), CX
	MOVQ n+80(FP), R15

	VMOVUPS (AX), Y0
	VMOVAPS Y0, Y1
	VMOVAPS Y0, Y2
	VMOVAPS Y0, Y3
	VMOVAPS Y0, Y4
	VMOVAPS Y0, Y5
	VMOVAPS Y0, Y6
	VMOVAPS Y0, Y7
	VMOVAPS Y0, Y8
	VMOVAPS Y0, Y9
	VMOVAPS Y0, Y10
	VMOVAPS Y0, Y11

lic_loop:
	MOVQ BX, AX
	MOVQ $3, R9

ldz_loop:
	MOVQ AX, SI
	MOVQ $3, R10

ldy_loop:
	VMOVUPS (DX), Y12
	VMOVUPS 32(DX), Y13
	VMOVUPS 64(DX), Y14
	ADDQ    $96, DX
	LEAQ    (SI)(R11*4), R13
	LEAQ    (R13)(R11*4), R14
	LEAQ    (R14)(R11*4), DI
	CMPQ    R15, $12
	JEQ     lp12
	CMPQ    R15, $11
	JEQ     lp11
	CMPQ    R15, $10
	JEQ     lp10
	CMPQ    R15, $9
	JEQ     lp9
	CMPQ    R15, $8
	JEQ     lp8
	CMPQ    R15, $7
	JEQ     lp7
	CMPQ    R15, $6
	JEQ     lp6
	CMPQ    R15, $5
	JEQ     lp5
	CMPQ    R15, $4
	JEQ     lp4
	CMPQ    R15, $3
	JEQ     lp3
	CMPQ    R15, $2
	JEQ     lp2
	JMP     lp1

lp12:
	LTAP3((R14)(R12*1), (DI), (DI)(R11*1), Y11)

lp11:
	LTAP3((R14)(R11*2), (R14)(R12*1), (DI), Y10)

lp10:
	LTAP3((R14)(R11*1), (R14)(R11*2), (R14)(R12*1), Y9)

lp9:
	LTAP3((R14), (R14)(R11*1), (R14)(R11*2), Y8)

lp8:
	LTAP3((R13)(R12*1), (R14), (R14)(R11*1), Y7)

lp7:
	LTAP3((R13)(R11*2), (R13)(R12*1), (R14), Y6)

lp6:
	LTAP3((R13)(R11*1), (R13)(R11*2), (R13)(R12*1), Y5)

lp5:
	LTAP3((R13), (R13)(R11*1), (R13)(R11*2), Y4)

lp4:
	LTAP3((SI)(R12*1), (R13), (R13)(R11*1), Y3)

lp3:
	LTAP3((SI)(R11*2), (SI)(R12*1), (R13), Y2)

lp2:
	LTAP3((SI)(R11*1), (SI)(R11*2), (SI)(R12*1), Y1)

lp1:
	LTAP3((SI), (SI)(R11*1), (SI)(R11*2), Y0)

	ADDQ CX, SI
	DECQ R10
	JNZ  ldy_loop

	ADDQ pplane+64(FP), AX
	DECQ R9
	JNZ  ldz_loop

	ADDQ $4, BX
	DECQ R8
	JNZ  lic_loop

	MOVQ         dst+0(FP), DI
	MOVQ         res+32(FP), SI
	MOVQ         ostride+72(FP), R11
	VBROADCASTSS floor+88(FP), Y15
	TESTQ        SI, SI
	JZ     lrelu

	LRES(Y0)
	LOUT(Y0)
	DECQ R15
	JZ   ldone
	LRES(Y1)
	LOUT(Y1)
	DECQ R15
	JZ   ldone
	LRES(Y2)
	LOUT(Y2)
	DECQ R15
	JZ   ldone
	LRES(Y3)
	LOUT(Y3)
	DECQ R15
	JZ   ldone
	LRES(Y4)
	LOUT(Y4)
	DECQ R15
	JZ   ldone
	LRES(Y5)
	LOUT(Y5)
	DECQ R15
	JZ   ldone
	LRES(Y6)
	LOUT(Y6)
	DECQ R15
	JZ   ldone
	LRES(Y7)
	LOUT(Y7)
	DECQ R15
	JZ   ldone
	LRES(Y8)
	LOUT(Y8)
	DECQ R15
	JZ   ldone
	LRES(Y9)
	LOUT(Y9)
	DECQ R15
	JZ   ldone
	LRES(Y10)
	LOUT(Y10)
	DECQ R15
	JZ   ldone
	LRES(Y11)
	LOUT(Y11)
	JMP  ldone

lrelu:
	LOUT(Y0)
	DECQ R15
	JZ   ldone
	LOUT(Y1)
	DECQ R15
	JZ   ldone
	LOUT(Y2)
	DECQ R15
	JZ   ldone
	LOUT(Y3)
	DECQ R15
	JZ   ldone
	LOUT(Y4)
	DECQ R15
	JZ   ldone
	LOUT(Y5)
	DECQ R15
	JZ   ldone
	LOUT(Y6)
	DECQ R15
	JZ   ldone
	LOUT(Y7)
	DECQ R15
	JZ   ldone
	LOUT(Y8)
	DECQ R15
	JZ   ldone
	LOUT(Y9)
	DECQ R15
	JZ   ldone
	LOUT(Y10)
	DECQ R15
	JZ   ldone
	LOUT(Y11)

ldone:
	VZEROUPPER
	RET
