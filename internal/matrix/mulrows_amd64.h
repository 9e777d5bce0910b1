	MOVQ ars+16(FP), AX
	SHLQ $ESHIFT, AX
	MOVQ AX, arsb-8(SP)
	MOVQ aks+24(FP), R12
	SHLQ $ESHIFT, R12
	MOVQ n+56(FP), R13
	MOVQ R13, rem-24(SP)
	SHLQ $ESHIFT, R13
	MOVQ $NOSIGN, R14
	MOVQ $0, off-16(SP)

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
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	CMPQ DX, $12
	JEQ p12
	CMPQ DX, $3
	JEQ p3
	CMPQ DX, $2
	JEQ p2
	CMPQ DX, $4
	JEQ p4
	CMPQ DX, $1
	JEQ p1
	CMPQ DX, $5
	JEQ phalf
	JMP pelem
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

p12:	// 1 row x 12 vectors
	FRESH(z12)
	LOAD4(0, C0, Y0, Y1, Y2, Y3)
	LOAD4(128, C0, Y4, Y5, Y6, Y7)
	LOAD4(256, C0, Y8, Y9, Y10, Y11)
	JMP k12
z12:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	ZERO4(Y8, Y9, Y10, Y11)
	PCALIGN $64
k12:
	ROW(A0, g12, s12, MAC4(0, Y0, Y1, Y2, Y3); MAC4(128, Y4, Y5, Y6, Y7); MAC4(256, Y8, Y9, Y10, Y11))
	KNEXT(k12)
	STORE4(0, C0, Y0, Y1, Y2, Y3)
	STORE4(128, C0, Y4, Y5, Y6, Y7)
	STORE4(256, C0, Y8, Y9, Y10, Y11)
	JMP next

p4:	// 2 rows x 4 vectors
	FRESH(z4)
	LOAD4(0, C0, Y0, Y1, Y2, Y3)
	LOAD4(0, C1, Y4, Y5, Y6, Y7)
	JMP k4
z4:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	PCALIGN $64
k4:
	ROW(A0, g4a, s4a, MAC4(0, Y0, Y1, Y2, Y3))
	ROW(A1, g4b, s4b, MAC4(0, Y4, Y5, Y6, Y7))
	KNEXT(k4)
	STORE4(0, C0, Y0, Y1, Y2, Y3)
	STORE4(0, C1, Y4, Y5, Y6, Y7)
	JMP next

p3:	// 4 rows x 3 vectors
	FRESH(z3)
	LOAD3(0, C0, Y0, Y1, Y2)
	LOAD3(0, C1, Y3, Y4, Y5)
	LOAD3(0, C2, Y6, Y7, Y8)
	LOAD3(0, C3, Y9, Y10, Y11)
	JMP k3
z3:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	ZERO4(Y8, Y9, Y10, Y11)
	PCALIGN $64
k3:
	ROW(A0, g3a, s3a, MAC3(0, Y0, Y1, Y2))
	ROW(A1, g3b, s3b, MAC3(0, Y3, Y4, Y5))
	ROW(A2, g3c, s3c, MAC3(0, Y6, Y7, Y8))
	ROW(A3, g3d, s3d, MAC3(0, Y9, Y10, Y11))
	KNEXT(k3)
	STORE3(0, C0, Y0, Y1, Y2)
	STORE3(0, C1, Y3, Y4, Y5)
	STORE3(0, C2, Y6, Y7, Y8)
	STORE3(0, C3, Y9, Y10, Y11)
	JMP next

p2:	// 4 rows x 2 vectors
	FRESH(z2)
	LOAD2(0, C0, Y0, Y1)
	LOAD2(0, C1, Y2, Y3)
	LOAD2(0, C2, Y4, Y5)
	LOAD2(0, C3, Y6, Y7)
	JMP k2
z2:
	ZERO4(Y0, Y1, Y2, Y3)
	ZERO4(Y4, Y5, Y6, Y7)
	PCALIGN $64
k2:
	ROW(A0, g2a, s2a, MAC2(0, Y0, Y1))
	ROW(A1, g2b, s2b, MAC2(0, Y2, Y3))
	ROW(A2, g2c, s2c, MAC2(0, Y4, Y5))
	ROW(A3, g2d, s2d, MAC2(0, Y6, Y7))
	KNEXT(k2)
	STORE2(0, C0, Y0, Y1)
	STORE2(0, C1, Y2, Y3)
	STORE2(0, C2, Y4, Y5)
	STORE2(0, C3, Y6, Y7)
	JMP next

p1:
	ONECOL(MOVUP, MAC1, k1, z1, g1a, s1a, g1b, s1b, g1c, s1c, g1d, s1d, Y0, Y1, Y2, Y3)
phalf:
	ONECOL(MOVUP, MACH, kh, zh, gha, sha, ghb, shb, ghc, shc, ghd, shd, X0, X1, X2, X3)
pelem:
	ONECOL(MOVS, MACS, ke, ze, gea, sea, geb, seb, gec, sec, ged, sed, X0, X1, X2, X3)
