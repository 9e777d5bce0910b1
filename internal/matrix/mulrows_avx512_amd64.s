#include "textflag.h"

// mulRowsF64AVX512 is mulRowsF64 (mulrows_amd64.s) at eight lanes: the same
// formula, a lane per output cell, and each cell's terms multiplied and
// added one at a time in ascending kk, VMULPD then VADDPD with the product
// as the add's first source, never FMA. So every cell has mulRowsGeneric's
// bits, as on the AVX2 path.
//
// A row of c is cut into column panels of up to 6 vectors (48 columns). A
// panel takes every column left, or 48 of them, and its last vector is
// masked by K1 to the columns it covers (1-8 lanes): loads are zero-masked
// and stores masked, so a 1-7 column tail is one masked vector, not a
// scalar loop, and no lane past the panel is read or written. Every panel
// is walked down all m rows before the next one starts. A pass takes 4 rows
// of a panel of 3-6 vectors, or 8 rows of a 1-2 vector one, so that at
// least 8 accumulators (independent add chains) are in flight, and a narrow
// panel's per-step cost (its row of b, the loop) is shared by more rows; a
// 6-vector pass holds 24 accumulators, the panel's row of b 6 more, and the
// broadcast and the product the last two of the 32 Z registers. The rows a
// panel's last pass would not fill take 1-row passes. Every kk loop starts
// on a 64-byte boundary (PCALIGN), as in mulrows_amd64.s.
//
//	AX  a cursor (kk loop)          SI  a, first row of the pass
//	BX  b cursor (kk loop)          DI  c, first row of the pass at the panel's first column
//	CX  kk counter                  R15 rows of this panel still to do
//	DX  scratch; in an 8-row pass, a (kk loop) or c at the pass's fifth row
//	R8,  R9   a row stride x1, x3   (bytes)
//	R10, R11  c row stride x1, x3   (bytes)
//	R12 a kk stride (bytes)         R13 bytes in a row of b and of c
//	R14 all bits but the sign       K1  the lanes of the panel's last vector
//	Z0-Z23  accumulators: 6 a row in a 4-row pass, 2 in an 8-row one
//	Z24-Z29 the panel's row kk of b
//	Z30 the broadcast a element     Z31 the product

#define A0 (AX)
#define A1 (AX)(R8*1)
#define A2 (AX)(R8*2)
#define A3 (AX)(R9*1)
#define A4 (DX)
#define A5 (DX)(R8*1)
#define A6 (DX)(R8*2)
#define A7 (DX)(R9*1)
#define C0 (DI)
#define C1 (DI)(R10*1)
#define C2 (DI)(R10*2)
#define C3 (DI)(R11*1)
#define C4 (DX)
#define C5 (DX)(R10*1)
#define C6 (DX)(R10*2)
#define C7 (DX)(R11*1)

// MAC: acc += a element * bv, a vector of the panel's row kk of b, as in
// mulrows_amd64.s: the a element is the multiply's first source and the
// product the add's.
#define MAC(acc, bv)	VMULPD bv, Z30, Z31; VADDPD acc, Z31, acc

// The per-width forms take a row's six accumulator registers and use the
// first v. BLOADv loads the panel's row kk of b into Z24-Z29, MACv adds
// one a element's terms, and LOADv and STOREv move the accumulators from
// and to a row of c; each masks its last vector by K1.
#define MAC1(r0, r1, r2, r3, r4, r5)	MAC(r0, Z24)
#define MAC2(r0, r1, r2, r3, r4, r5)	MAC1(r0, r1, r2, r3, r4, r5); MAC(r1, Z25)
#define MAC3(r0, r1, r2, r3, r4, r5)	MAC2(r0, r1, r2, r3, r4, r5); MAC(r2, Z26)
#define MAC4(r0, r1, r2, r3, r4, r5)	MAC3(r0, r1, r2, r3, r4, r5); MAC(r3, Z27)
#define MAC5(r0, r1, r2, r3, r4, r5)	MAC4(r0, r1, r2, r3, r4, r5); MAC(r4, Z28)
#define MAC6(r0, r1, r2, r3, r4, r5)	MAC5(r0, r1, r2, r3, r4, r5); MAC(r5, Z29)

#define BL(o, r)	VMOVUPD o(BX), r
#define BLL(o, r)	VMOVUPD.Z o(BX), K1, r
#define BLOAD1	BLL(0, Z24)
#define BLOAD2	BL(0, Z24); BLL(64, Z25)
#define BLOAD3	BL(0, Z24); BL(64, Z25); BLL(128, Z26)
#define BLOAD4	BL(0, Z24); BL(64, Z25); BL(128, Z26); BLL(192, Z27)
#define BLOAD5	BL(0, Z24); BL(64, Z25); BL(128, Z26); BL(192, Z27); BLL(256, Z28)
#define BLOAD6	BL(0, Z24); BL(64, Z25); BL(128, Z26); BL(192, Z27); BL(256, Z28); BLL(320, Z29)

#define LD(o, row, r)	VMOVUPD o row, r
#define LDL(o, row, r)	VMOVUPD.Z o row, K1, r
#define LOAD1(row, r0, r1, r2, r3, r4, r5)	LDL(0, row, r0)
#define LOAD2(row, r0, r1, r2, r3, r4, r5)	LD(0, row, r0); LDL(64, row, r1)
#define LOAD3(row, r0, r1, r2, r3, r4, r5)	LD(0, row, r0); LD(64, row, r1); LDL(128, row, r2)
#define LOAD4(row, r0, r1, r2, r3, r4, r5)	LD(0, row, r0); LD(64, row, r1); LD(128, row, r2); LDL(192, row, r3)
#define LOAD5(row, r0, r1, r2, r3, r4, r5)	LD(0, row, r0); LD(64, row, r1); LD(128, row, r2); LD(192, row, r3); LDL(256, row, r4)
#define LOAD6(row, r0, r1, r2, r3, r4, r5)	LD(0, row, r0); LD(64, row, r1); LD(128, row, r2); LD(192, row, r3); LD(256, row, r4); LDL(320, row, r5)

#define ST(o, row, r)	VMOVUPD r, o row
#define STL(o, row, r)	VMOVUPD r, K1, o row
#define STORE1(row, r0, r1, r2, r3, r4, r5)	STL(0, row, r0)
#define STORE2(row, r0, r1, r2, r3, r4, r5)	ST(0, row, r0); STL(64, row, r1)
#define STORE3(row, r0, r1, r2, r3, r4, r5)	ST(0, row, r0); ST(64, row, r1); STL(128, row, r2)
#define STORE4(row, r0, r1, r2, r3, r4, r5)	ST(0, row, r0); ST(64, row, r1); ST(128, row, r2); STL(192, row, r3)
#define STORE5(row, r0, r1, r2, r3, r4, r5)	ST(0, row, r0); ST(64, row, r1); ST(128, row, r2); ST(192, row, r3); STL(256, row, r4)
#define STORE6(row, r0, r1, r2, r3, r4, r5)	ST(0, row, r0); ST(64, row, r1); ST(128, row, r2); ST(192, row, r3); ST(256, row, r4); STL(320, row, r5)

#define ZERO4(r0, r1, r2, r3)	VPXORQ r0, r0, r0; VPXORQ r1, r1, r1; VPXORQ r2, r2, r2; VPXORQ r3, r3, r3

// ROW is one row's share of a kk step, as in mulrows_amd64.s: the a
// element is tested for +-0 (R14 masks the sign off), and only then is
// skipZero looked at, in ZSTUB: it sits after the pass, so that a nonzero
// element (the common case) takes no branch.
#define ROW(aelem, keep, skip, zero, macs) \
	TESTQ aelem, R14; \
	JZ zero; \
keep: \
	VBROADCASTSD aelem, Z30; \
	macs; \
skip:

#define ZSTUB(zero, keep, skip) \
zero: \
	CMPB skipZero+64(FP), $0; \
	JNE skip; \
	JMP keep

// KNEXT closes a kk loop.
#define KNEXT(loop) \
	ADDQ R12, AX; \
	ADDQ R13, BX; \
	DECQ CX; \
	JNZ loop

// FRESH jumps to zero when zeroC is set; see mulrows_amd64.h.
#define FRESH(zero) \
	CMPB zeroC+65(FP), $0; \
	JNE zero

// PASS4 is a 4-row pass over a panel of v = 3-6 vectors, six accumulators
// a row (a narrower panel leaves the last ones idle).
#define PASS4(zero, loop, ga, sa, za, gb, sb, zb, gc, sc, zc, gd, sd, zd, LOADv, BLOADv, MACv, STOREv) \
	FRESH(zero); \
	LOADv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	LOADv(C1, Z6, Z7, Z8, Z9, Z10, Z11); \
	LOADv(C2, Z12, Z13, Z14, Z15, Z16, Z17); \
	LOADv(C3, Z18, Z19, Z20, Z21, Z22, Z23); \
	JMP loop; \
zero: \
	ZERO4(Z0, Z1, Z2, Z3); \
	ZERO4(Z4, Z5, Z6, Z7); \
	ZERO4(Z8, Z9, Z10, Z11); \
	ZERO4(Z12, Z13, Z14, Z15); \
	ZERO4(Z16, Z17, Z18, Z19); \
	ZERO4(Z20, Z21, Z22, Z23); \
	PCALIGN $64; \
loop: \
	BLOADv; \
	ROW(A0, ga, sa, za, MACv(Z0, Z1, Z2, Z3, Z4, Z5)) \
	ROW(A1, gb, sb, zb, MACv(Z6, Z7, Z8, Z9, Z10, Z11)) \
	ROW(A2, gc, sc, zc, MACv(Z12, Z13, Z14, Z15, Z16, Z17)) \
	ROW(A3, gd, sd, zd, MACv(Z18, Z19, Z20, Z21, Z22, Z23)) \
	KNEXT(loop); \
	STOREv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	STOREv(C1, Z6, Z7, Z8, Z9, Z10, Z11); \
	STOREv(C2, Z12, Z13, Z14, Z15, Z16, Z17); \
	STOREv(C3, Z18, Z19, Z20, Z21, Z22, Z23); \
	JMP next; \
	ZSTUB(za, ga, sa); \
	ZSTUB(zb, gb, sb); \
	ZSTUB(zc, gc, sc); \
	ZSTUB(zd, gd, sd)

// PASS8 is an 8-row pass over a panel of v = 1-2 vectors, two accumulators
// a row; DX addresses rows 4-7, of a in the kk loop and of c around it.
#define PASS8(zero, loop, ga, sa, za, gb, sb, zb, gc, sc, zc, gd, sd, zd, ge, se, ze, gf, sf, zf, gg, sg, zg, gh, sh, zh, LOADv, BLOADv, MACv, STOREv) \
	LEAQ (DI)(R10*4), DX; \
	FRESH(zero); \
	LOADv(C0, Z0, Z1, _, _, _, _); \
	LOADv(C1, Z2, Z3, _, _, _, _); \
	LOADv(C2, Z4, Z5, _, _, _, _); \
	LOADv(C3, Z6, Z7, _, _, _, _); \
	LOADv(C4, Z8, Z9, _, _, _, _); \
	LOADv(C5, Z10, Z11, _, _, _, _); \
	LOADv(C6, Z12, Z13, _, _, _, _); \
	LOADv(C7, Z14, Z15, _, _, _, _); \
	JMP loop; \
zero: \
	ZERO4(Z0, Z1, Z2, Z3); \
	ZERO4(Z4, Z5, Z6, Z7); \
	ZERO4(Z8, Z9, Z10, Z11); \
	ZERO4(Z12, Z13, Z14, Z15); \
	PCALIGN $64; \
loop: \
	LEAQ (AX)(R8*4), DX; \
	BLOADv; \
	ROW(A0, ga, sa, za, MACv(Z0, Z1, _, _, _, _)) \
	ROW(A1, gb, sb, zb, MACv(Z2, Z3, _, _, _, _)) \
	ROW(A2, gc, sc, zc, MACv(Z4, Z5, _, _, _, _)) \
	ROW(A3, gd, sd, zd, MACv(Z6, Z7, _, _, _, _)) \
	ROW(A4, ge, se, ze, MACv(Z8, Z9, _, _, _, _)) \
	ROW(A5, gf, sf, zf, MACv(Z10, Z11, _, _, _, _)) \
	ROW(A6, gg, sg, zg, MACv(Z12, Z13, _, _, _, _)) \
	ROW(A7, gh, sh, zh, MACv(Z14, Z15, _, _, _, _)) \
	KNEXT(loop); \
	LEAQ (DI)(R10*4), DX; \
	STOREv(C0, Z0, Z1, _, _, _, _); \
	STOREv(C1, Z2, Z3, _, _, _, _); \
	STOREv(C2, Z4, Z5, _, _, _, _); \
	STOREv(C3, Z6, Z7, _, _, _, _); \
	STOREv(C4, Z8, Z9, _, _, _, _); \
	STOREv(C5, Z10, Z11, _, _, _, _); \
	STOREv(C6, Z12, Z13, _, _, _, _); \
	STOREv(C7, Z14, Z15, _, _, _, _); \
	JMP next; \
	ZSTUB(za, ga, sa); \
	ZSTUB(zb, gb, sb); \
	ZSTUB(zc, gc, sc); \
	ZSTUB(zd, gd, sd); \
	ZSTUB(ze, ge, se); \
	ZSTUB(zf, gf, sf); \
	ZSTUB(zg, gg, sg); \
	ZSTUB(zh, gh, sh)

// PASS1 is a 1-row pass over a panel of v = 1-6 vectors: the rows a 4- or
// 8-row pass leaves over.
#define PASS1(zero, loop, g, s, y, LOADv, BLOADv, MACv, STOREv) \
	FRESH(zero); \
	LOADv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	JMP loop; \
zero: \
	ZERO4(Z0, Z1, Z2, Z3); \
	VPXORQ Z4, Z4, Z4; \
	VPXORQ Z5, Z5, Z5; \
	PCALIGN $64; \
loop: \
	BLOADv; \
	ROW(A0, g, s, y, MACv(Z0, Z1, Z2, Z3, Z4, Z5)) \
	KNEXT(loop); \
	STOREv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	JMP next; \
	ZSTUB(y, g, s)

// func mulRowsF64AVX512(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)
TEXT ·mulRowsF64AVX512(SB), NOSPLIT, $56-66
	MOVQ ars+16(FP), AX
	SHLQ $3, AX
	MOVQ AX, arsb-8(SP)
	MOVQ aks+24(FP), R12
	SHLQ $3, R12
	MOVQ n+56(FP), R13
	MOVQ R13, rem-24(SP)
	SHLQ $3, R13
	MOVQ $0x7fffffffffffffff, R14
	MOVQ $0, off-16(SP)

pick:
	// The panel: BX columns (48, or all that are left) in AX vectors, DX
	// rows per pass, and K1 the lanes of its last vector.
	MOVQ rem-24(SP), BX
	TESTQ BX, BX
	JZ done
	CMPQ BX, $48
	JLE sized
	MOVQ $48, BX
sized:
	LEAQ 7(BX), AX
	SHRQ $3, AX
	LEAQ -1(BX), CX
	ANDQ $7, CX
	INCQ CX
	MOVL $1, DX
	SHLL CX, DX
	DECL DX
	KMOVW DX, K1
	MOVQ $4, DX
	CMPQ AX, $3
	JGE picked
	MOVQ $8, DX
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
	// Fewer rows left than a pass holds: finish them one row per pass, in
	// the panel's 1-row body (pid + 8).
	MOVQ $1, pass-56(SP)
	ADDQ $8, pid-40(SP)
run:
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	CMPQ DX, $6
	JEQ p6
	CMPQ DX, $2
	JEQ p2
	CMPQ DX, $1
	JEQ p1
	CMPQ DX, $3
	JEQ p3
	CMPQ DX, $4
	JEQ p4
	CMPQ DX, $5
	JEQ p5
	CMPQ DX, $14
	JEQ q6
	CMPQ DX, $10
	JEQ q2
	CMPQ DX, $9
	JEQ q1
	CMPQ DX, $11
	JEQ q3
	CMPQ DX, $12
	JEQ q4
	JMP q5
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
	SHLQ $3, AX
	ADDQ AX, off-16(SP)
	JMP pick
done:
	VZEROUPPER
	RET

p6:
	PASS4(z6, k6, g6a, s6a, y6a, g6b, s6b, y6b, g6c, s6c, y6c, g6d, s6d, y6d, LOAD6, BLOAD6, MAC6, STORE6)
p5:
	PASS4(z5, k5, g5a, s5a, y5a, g5b, s5b, y5b, g5c, s5c, y5c, g5d, s5d, y5d, LOAD5, BLOAD5, MAC5, STORE5)
p4:
	PASS4(z4, k4, g4a, s4a, y4a, g4b, s4b, y4b, g4c, s4c, y4c, g4d, s4d, y4d, LOAD4, BLOAD4, MAC4, STORE4)
p3:
	PASS4(z3, k3, g3a, s3a, y3a, g3b, s3b, y3b, g3c, s3c, y3c, g3d, s3d, y3d, LOAD3, BLOAD3, MAC3, STORE3)
p2:
	PASS8(z2, k2, g2a, s2a, y2a, g2b, s2b, y2b, g2c, s2c, y2c, g2d, s2d, y2d, g2e, s2e, y2e, g2f, s2f, y2f, g2g, s2g, y2g, g2h, s2h, y2h, LOAD2, BLOAD2, MAC2, STORE2)
p1:
	PASS8(z1, k1, g1a, s1a, y1a, g1b, s1b, y1b, g1c, s1c, y1c, g1d, s1d, y1d, g1e, s1e, y1e, g1f, s1f, y1f, g1g, s1g, y1g, g1h, s1h, y1h, LOAD1, BLOAD1, MAC1, STORE1)

q6:
	PASS1(z16, k16, g16, s16, y16, LOAD6, BLOAD6, MAC6, STORE6)
q5:
	PASS1(z15, k15, g15, s15, y15, LOAD5, BLOAD5, MAC5, STORE5)
q4:
	PASS1(z14, k14, g14, s14, y14, LOAD4, BLOAD4, MAC4, STORE4)
q3:
	PASS1(z13, k13, g13, s13, y13, LOAD3, BLOAD3, MAC3, STORE3)
q2:
	PASS1(z12, k12, g12, s12, y12, LOAD2, BLOAD2, MAC2, STORE2)
q1:
	PASS1(z11, k11, g11, s11, y11, LOAD1, BLOAD1, MAC1, STORE1)
