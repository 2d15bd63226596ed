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

// func convBwdW33(dst, bias, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64)
//
// Accumulators Y0-Y8 (tap k = dy*3+dx) stay in registers across all d*h*w
// output positions, walked in (z, y, x) order; each position loads its
// eight gradOut lanes once and issues nine broadcast-multiply-adds, and,
// when bias is not nil, adds the lanes themselves into Y15, the bias
// gradient's accumulator. The input reads stay inside the padded channel:
// rows y..y+2 and columns x..x+2 of plane z of the (d+2, h+2, w+2) block
// that pin starts, tap dx of position x at (x+dx)*istride (DI), the rows
// at SI, CX = SI + prow and R15 = SI + 2*prow. Strides are in bytes.
TEXT ·convBwdW33(SB), NOSPLIT, $0-104
	MOVQ pin+16(FP), BX
	MOVQ gt+24(FP), DX
	MOVQ d+32(FP), R8
	MOVQ h+40(FP), R13
	MOVQ w+48(FP), R14
	MOVQ pplane+56(FP), R12
	MOVQ prow+64(FP), R11
	MOVQ istride+72(FP), DI

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y15, Y15, Y15

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
	WTAP((CX)(DI*2), Y10, Y5)
	WTAP((R15), Y11, Y6)
	WTAP((R15)(DI*1), Y12, Y7)
	WTAP((R15)(DI*2), Y13, Y8)
	CMPQ    bias+8(FP), $0
	JEQ     wnobias
	VADDPS  Y9, Y15, Y15

wnobias:
	ADDQ DI, SI
	ADDQ gstride+80(FP), DX
	DECQ R10
	JNZ  wx_loop

	ADDQ growSkip+88(FP), DX
	ADDQ R11, AX
	DECQ R9
	JNZ  wy_loop

	ADDQ gplaneSkip+96(FP), DX
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
	MOVQ    bias+8(FP), AX
	TESTQ   AX, AX
	JZ      wdone
	VMOVUPS Y15, (AX)

wdone:
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

// PTAP3 is LTAP3 for two batch slots: each input at a0, a1, a2 is the
// (slot 0, slot 1) pair of one channel, broadcast as one 64-bit value so
// lane 2c+s holds slot s's input, times the tap's doubled weights
// (Z12-Z14, lane 2c+s holding output channel c's), into the position's
// 16-lane accumulator, in dx order. Multiply and add stay separate (no
// FMA), so every lane runs LTAP3's sequence.
#define PTAP3(a0, a1, a2, acc) \
	VBROADCASTSD a0, Z15       \
	VMULPS       Z12, Z15, Z15 \
	VADDPS       Z15, acc, acc \
	VBROADCASTSD a1, Z15       \
	VMULPS       Z13, Z15, Z15 \
	VADDPS       Z15, acc, acc \
	VBROADCASTSD a2, Z15       \
	VMULPS       Z14, Z15, Z15 \
	VADDPS       Z15, acc, acc

// PRES is LRES on 16 lanes.
#define PRES(acc) \
	VADDPS (SI), acc, acc \
	ADDQ   R11, SI

// POUT is LOUT on 16 lanes: max(floor, acc) with the floor (Z15) first.
#define POUT(acc) \
	VMAXPS  acc, Z15, acc \
	VMOVUPS acc, (DI)     \
	ADDQ    R11, DI

// func convRow33x2(dst, pin, w, bias, res *float32, cin, istride, prow, pplane, ostride, n int64, floor float32)
//
// convRow33 for two batch slots interleaved in one Blocked buffer, channel
// c of slot s at float 2c+s of a position: n (1..12) positions, eight
// output channels of both slots each, in the 16 lanes of one vector.
// Accumulators Z0-Z11, doubled weights Z12-Z14 and the temporary Z15 are
// the only vector registers it touches, so the closing VZEROUPPER leaves
// no dirty upper state. The addressing and the tap order are convRow33's;
// an input channel is 8 bytes (a slot pair) and a tap's weights 64.
TEXT ·convRow33x2(SB), NOSPLIT, $0-92
	MOVQ pin+8(FP), BX
	MOVQ w+16(FP), DX
	MOVQ bias+24(FP), AX
	MOVQ cin+40(FP), R8
	MOVQ istride+48(FP), R11
	LEAQ (R11)(R11*2), R12
	MOVQ prow+56(FP), CX
	MOVQ n+80(FP), R15

	VMOVUPS (AX), Z0
	VMOVAPS Z0, Z1
	VMOVAPS Z0, Z2
	VMOVAPS Z0, Z3
	VMOVAPS Z0, Z4
	VMOVAPS Z0, Z5
	VMOVAPS Z0, Z6
	VMOVAPS Z0, Z7
	VMOVAPS Z0, Z8
	VMOVAPS Z0, Z9
	VMOVAPS Z0, Z10
	VMOVAPS Z0, Z11

pic_loop:
	MOVQ BX, AX
	MOVQ $3, R9

pdz_loop:
	MOVQ AX, SI
	MOVQ $3, R10

pdy_loop:
	VMOVUPS (DX), Z12
	VMOVUPS 64(DX), Z13
	VMOVUPS 128(DX), Z14
	ADDQ    $192, DX
	LEAQ    (SI)(R11*4), R13
	LEAQ    (R13)(R11*4), R14
	LEAQ    (R14)(R11*4), DI
	CMPQ    R15, $12
	JEQ     pp12
	CMPQ    R15, $11
	JEQ     pp11
	CMPQ    R15, $10
	JEQ     pp10
	CMPQ    R15, $9
	JEQ     pp9
	CMPQ    R15, $8
	JEQ     pp8
	CMPQ    R15, $7
	JEQ     pp7
	CMPQ    R15, $6
	JEQ     pp6
	CMPQ    R15, $5
	JEQ     pp5
	CMPQ    R15, $4
	JEQ     pp4
	CMPQ    R15, $3
	JEQ     pp3
	CMPQ    R15, $2
	JEQ     pp2
	JMP     pp1

pp12:
	PTAP3((R14)(R12*1), (DI), (DI)(R11*1), Z11)

pp11:
	PTAP3((R14)(R11*2), (R14)(R12*1), (DI), Z10)

pp10:
	PTAP3((R14)(R11*1), (R14)(R11*2), (R14)(R12*1), Z9)

pp9:
	PTAP3((R14), (R14)(R11*1), (R14)(R11*2), Z8)

pp8:
	PTAP3((R13)(R12*1), (R14), (R14)(R11*1), Z7)

pp7:
	PTAP3((R13)(R11*2), (R13)(R12*1), (R14), Z6)

pp6:
	PTAP3((R13)(R11*1), (R13)(R11*2), (R13)(R12*1), Z5)

pp5:
	PTAP3((R13), (R13)(R11*1), (R13)(R11*2), Z4)

pp4:
	PTAP3((SI)(R12*1), (R13), (R13)(R11*1), Z3)

pp3:
	PTAP3((SI)(R11*2), (SI)(R12*1), (R13), Z2)

pp2:
	PTAP3((SI)(R11*1), (SI)(R11*2), (SI)(R12*1), Z1)

pp1:
	PTAP3((SI), (SI)(R11*1), (SI)(R11*2), Z0)

	ADDQ CX, SI
	DECQ R10
	JNZ  pdy_loop

	ADDQ pplane+64(FP), AX
	DECQ R9
	JNZ  pdz_loop

	ADDQ $8, BX
	DECQ R8
	JNZ  pic_loop

	MOVQ         dst+0(FP), DI
	MOVQ         res+32(FP), SI
	MOVQ         ostride+72(FP), R11
	VBROADCASTSS floor+88(FP), Z15
	TESTQ        SI, SI
	JZ           prelu

	PRES(Z0)
	POUT(Z0)
	DECQ R15
	JZ   pdone
	PRES(Z1)
	POUT(Z1)
	DECQ R15
	JZ   pdone
	PRES(Z2)
	POUT(Z2)
	DECQ R15
	JZ   pdone
	PRES(Z3)
	POUT(Z3)
	DECQ R15
	JZ   pdone
	PRES(Z4)
	POUT(Z4)
	DECQ R15
	JZ   pdone
	PRES(Z5)
	POUT(Z5)
	DECQ R15
	JZ   pdone
	PRES(Z6)
	POUT(Z6)
	DECQ R15
	JZ   pdone
	PRES(Z7)
	POUT(Z7)
	DECQ R15
	JZ   pdone
	PRES(Z8)
	POUT(Z8)
	DECQ R15
	JZ   pdone
	PRES(Z9)
	POUT(Z9)
	DECQ R15
	JZ   pdone
	PRES(Z10)
	POUT(Z10)
	DECQ R15
	JZ   pdone
	PRES(Z11)
	POUT(Z11)
	JMP  pdone

prelu:
	POUT(Z0)
	DECQ R15
	JZ   pdone
	POUT(Z1)
	DECQ R15
	JZ   pdone
	POUT(Z2)
	DECQ R15
	JZ   pdone
	POUT(Z3)
	DECQ R15
	JZ   pdone
	POUT(Z4)
	DECQ R15
	JZ   pdone
	POUT(Z5)
	DECQ R15
	JZ   pdone
	POUT(Z6)
	DECQ R15
	JZ   pdone
	POUT(Z7)
	DECQ R15
	JZ   pdone
	POUT(Z8)
	DECQ R15
	JZ   pdone
	POUT(Z9)
	DECQ R15
	JZ   pdone
	POUT(Z10)
	DECQ R15
	JZ   pdone
	POUT(Z11)

pdone:
	VZEROUPPER
	RET

// PWTAP is WTAP for two batch slots: the input pair at mem (channel ic of
// slot 0, then of slot 1), broadcast as one 64-bit value so lane 2c+s
// holds slot s's input, times the position's 16 gradOut lanes (Z9, lane
// 2c+s holding slot s's output channel c), into the tap's accumulator.
// Multiply and add stay separate (no FMA), so every lane runs WTAP's
// sequence.
#define PWTAP(mem, t, acc) \
	VBROADCASTSD mem, t    \
	VMULPS       Z9, t, t  \
	VADDPS       t, acc, acc

// func convBwdW33x2(dst, bias, pin, gt *float32, d, h, w, pplane, prow, istride, gstride, growSkip, gplaneSkip int64)
//
// convBwdW33 for two batch slots interleaved in one Blocked buffer,
// channel c of slot s at float 2c+s of a position: accumulators Z0-Z8
// (tap k = dy*3+dx), lane 2c+s slot s's sum for output channel c, stay in
// registers across all d*h*w output positions, walked in (z, y, x) order.
// Each position loads its 16 gradOut lanes once (Z9), issues nine
// broadcast-multiply-adds, and, when bias is not nil, adds the lanes
// themselves into Z15, the bias gradient's accumulator; an input channel
// is 8 bytes (a slot pair). The addressing is convBwdW33's. Z0-Z15 are the
// only vector registers it touches, so the closing VZEROUPPER leaves no
// dirty upper state. Strides are in bytes.
TEXT ·convBwdW33x2(SB), NOSPLIT, $0-104
	MOVQ pin+16(FP), BX
	MOVQ gt+24(FP), DX
	MOVQ d+32(FP), R8
	MOVQ h+40(FP), R13
	MOVQ w+48(FP), R14
	MOVQ pplane+56(FP), R12
	MOVQ prow+64(FP), R11
	MOVQ istride+72(FP), DI

	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z15, Z15, Z15

pwz_loop:
	MOVQ BX, AX
	MOVQ R13, R9

pwy_loop:
	MOVQ AX, SI
	MOVQ R14, R10

pwx_loop:
	VMOVUPS (DX), Z9
	LEAQ    (SI)(R11*1), CX
	LEAQ    (SI)(R11*2), R15
	PWTAP((SI), Z10, Z0)
	PWTAP((SI)(DI*1), Z11, Z1)
	PWTAP((SI)(DI*2), Z12, Z2)
	PWTAP((CX), Z13, Z3)
	PWTAP((CX)(DI*1), Z14, Z4)
	PWTAP((CX)(DI*2), Z10, Z5)
	PWTAP((R15), Z11, Z6)
	PWTAP((R15)(DI*1), Z12, Z7)
	PWTAP((R15)(DI*2), Z13, Z8)
	CMPQ    bias+8(FP), $0
	JEQ     pwnobias
	VADDPS  Z9, Z15, Z15

pwnobias:
	ADDQ DI, SI
	ADDQ gstride+80(FP), DX
	DECQ R10
	JNZ  pwx_loop

	ADDQ growSkip+88(FP), DX
	ADDQ R11, AX
	DECQ R9
	JNZ  pwy_loop

	ADDQ gplaneSkip+96(FP), DX
	ADDQ R12, BX
	DECQ R8
	JNZ  pwz_loop

	MOVQ    dst+0(FP), DI
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	VMOVUPS Z8, 512(DI)
	MOVQ    bias+8(FP), AX
	TESTQ   AX, AX
	JZ      pwdone
	VMOVUPS Z15, (AX)

pwdone:
	VZEROUPPER
	RET

// func maskReLUGrad8(grad, act *float32, n int64)
//
// The ReLU backward on n floats (a multiple of 8): each lane of grad is kept,
// bits and all, where !(act <= 0) — NLE_UQ, so a NaN act keeps it — and
// becomes +0 elsewhere, by an AND with the compare's all-ones or all-zeros
// lane.
TEXT ·maskReLUGrad8(SB), NOSPLIT, $0-24
	MOVQ   grad+0(FP), DI
	MOVQ   act+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y1, Y1, Y1

mloop:
	VMOVUPS (SI), Y0
	VCMPPS  $0x16, Y1, Y0, Y2
	VANDPS  (DI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     mloop

	VZEROUPPER
	RET
