	MOVQ ars+16(FP), AX
	SHLQ $ESHIFT, AX
	MOVQ AX, arsb-8(SP)
	MOVQ aks+24(FP), R12
	SHLQ $ESHIFT, R12
	MOVQ n+56(FP), R13
	MOVQ R13, rem-24(SP)
	SHLQ $ESHIFT, R13
	MOVQ $0, off-16(SP)
	VXORPD Y15, Y15, Y15

#include "mulrows_mode_amd64.h"

pick:
	MOVQ rem-24(SP), CX
	TESTQ CX, CX
	JZ done
	PANEL(12, 12*LANES, 1)
	PANEL(4, 4*LANES, 2)
	PANEL(3, 3*LANES, 4)
	PANEL(2, 2*LANES, 4)
	PANEL(1, LANES, 4)
	PANEL(5, LANES/2, 4)
	PANEL(0, 1, 4)
picked:
	MOVQ AX, pid-40(SP)
	MOVQ BX, pcols-48(SP)
	MOVQ DX, pass-56(SP)
	MOVQ a+8(FP), SI
	MOVQ off-16(SP), AX
	MOVQ c+0(FP), DI
	ADDQ AX, DI
	ADDQ b+32(FP), AX
	MOVQ AX, bpan-32(SP)
	MOVQ m+40(FP), R15
	MOVQ arsb-8(SP), R8
	LEAQ (R8)(R8*2), R9
	MOVQ R13, R10
	LEAQ (R10)(R10*2), R11

rows:
	TESTQ R15, R15
	JZ paneldone
	CMPQ R15, pass-56(SP)
	JGE run
	// Fewer rows left than a pass holds: finish one row per pass with the
	// row strides at 0, so every row of the pass is that one row. They load
	// the same cells, do the same arithmetic and store the same values.
	XORQ R8, R8
	XORQ R9, R9
	XORQ R10, R10
	XORQ R11, R11
	MOVQ $1, pass-56(SP)
run:
	MOVQ mode-64(SP), DX
	TESTQ DX, DX
	JZ plain
	CMPQ DX, $1
	JEQ masked
	CSCAN(ca, cb, cc, cd, ce, masked)

plain:
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	BODY(p12, p3, p2, p4, p1, phalf, pelem)
masked:
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	BODY(m12, m3, m2, m4, m1, mhalf, melem)
next:
	MOVQ pass-56(SP), DX
	SUBQ DX, R15
	MOVQ DX, AX
	IMULQ arsb-8(SP), AX
	ADDQ AX, SI
	IMULQ R13, DX
	ADDQ DX, DI
	JMP rows
paneldone:
	MOVQ pcols-48(SP), AX
	SUBQ AX, rem-24(SP)
	SHLQ $ESHIFT, AX
	ADDQ AX, off-16(SP)
	JMP pick
done:
	VZEROUPPER
	RET

p12:
	PASS12(z12, k12, ROW, MAC)
p4:
	PASS4(z4, k4, ROW, MAC)
p3:
	PASS3(z3, k3, ROW, MAC)
p2:
	PASS2(z2, k2, ROW, MAC)
p1:
	ONECOL(MOVUP, ROW, MAC1, k1, z1, Y0, Y1, Y2, Y3)
phalf:
	ONECOL(MOVUP, ROW, MACH, kh, zh, X0, X1, X2, X3)
pelem:
	ONECOL(MOVS, ROW, MACS, ke, ze, X0, X1, X2, X3)

m12:
	PASS12(zm12, km12, ROWM, MACM)
m4:
	PASS4(zm4, km4, ROWM, MACM)
m3:
	PASS3(zm3, km3, ROWM, MACM)
m2:
	PASS2(zm2, km2, ROWM, MACM)
m1:
	ONECOL(MOVUP, ROWM, MAC1M, km1, zm1, Y0, Y1, Y2, Y3)
mhalf:
	ONECOL(MOVUP, ROWM, MACHM, kmh, zmh, X0, X1, X2, X3)
melem:
	ONECOL(MOVS, ROWM, MACSM, kme, zme, X0, X1, X2, X3)
