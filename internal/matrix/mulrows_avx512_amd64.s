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
// Zero skipping takes no branch on an element. Each pass runs one of two
// bodies (the mode, set once per call by mulrows_mode_amd64.h, says which):
//   - the plain body adds every term. That is mulRowsGeneric's result when
//     skipZero is off, when a holds no +-0, and also when b is finite and
//     no cell the pass writes starts at -0: a +-0 element's term is then
//     +-0, and adding +-0 to an accumulator that is not -0 leaves it as it
//     is, bit for bit (kernels.go has the argument).
//   - the masked body runs otherwise. Per row and kk it sets K2 to the
//     lanes whose a element is not +-0 (all eight or none) and merge-masks
//     the add by K2: a masked-off lane keeps its accumulator, bit for bit,
//     which is exactly a skipped term, whatever b and the cell hold.
// The scans that set the mode (ASCAN, BSCAN, and CSCAN per pass) test
// eight elements an instruction or two and branch only on their answer.
//
//	AX  a cursor (kk loop)          SI  a, first row of the pass
//	BX  b cursor (kk loop)          DI  c, first row of the pass at the panel's first column
//	CX  kk counter                  R15 rows of this panel still to do
//	DX  scratch; in an 8-row pass, a (kk loop) or c at the pass's fifth row
//	R8,  R9   a row stride x1, x3   (bytes)
//	R10, R11  c row stride x1, x3   (bytes)
//	R12 a kk stride (bytes)         R13 bytes in a row of b and of c
//	K1  the lanes of the panel's last vector
//	K2  the masked body's lanes (K2-K6 the scans' too)
//	Z0-Z23  accumulators: 6 a row in a 4-row pass, 2 in an 8-row one
//	Z24-Z29 the panel's row kk of b
//	Z30 the broadcast a element     Z31 the product (Z24-Z31 the scans' too)

// nosign is every bit of a float64 but the sign: a value ANDed with it is
// zero exactly when the value is +-0.
DATA nosign<>+0(SB)/8, $0x7fffffffffffffff
GLOBL nosign<>(SB), RODATA|NOPTR, $8

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
// product the add's. MACM is MAC with the add merge-masked by K2.
#define MAC(acc, bv)	VMULPD bv, Z30, Z31; VADDPD acc, Z31, acc
#define MACM(acc, bv)	VMULPD bv, Z30, Z31; VADDPD acc, Z31, K2, acc

// The per-width forms take a row's six accumulator registers and use the
// first v. BLOADv loads the panel's row kk of b into Z24-Z29, MACv adds
// one a element's terms with mac (MAC or MACM), and LOADv and STOREv move
// the accumulators from and to a row of c; each masks its last vector by
// K1.
#define MAC1(mac, r0, r1, r2, r3, r4, r5)	mac(r0, Z24)
#define MAC2(mac, r0, r1, r2, r3, r4, r5)	MAC1(mac, r0, r1, r2, r3, r4, r5); mac(r1, Z25)
#define MAC3(mac, r0, r1, r2, r3, r4, r5)	MAC2(mac, r0, r1, r2, r3, r4, r5); mac(r2, Z26)
#define MAC4(mac, r0, r1, r2, r3, r4, r5)	MAC3(mac, r0, r1, r2, r3, r4, r5); mac(r3, Z27)
#define MAC5(mac, r0, r1, r2, r3, r4, r5)	MAC4(mac, r0, r1, r2, r3, r4, r5); mac(r4, Z28)
#define MAC6(mac, r0, r1, r2, r3, r4, r5)	MAC5(mac, r0, r1, r2, r3, r4, r5); mac(r5, Z29)

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

// ROW is one row's share of a kk step in the plain body: every term added.
// ROWM is the masked body's: K2 gets the lanes where the broadcast a
// element has a bit set besides the sign (all of them, or none when it is
// +-0), and the adds are merge-masked by it.
#define ROW(aelem, macv, r0, r1, r2, r3, r4, r5) \
	VBROADCASTSD aelem, Z30; \
	macv(MAC, r0, r1, r2, r3, r4, r5)

#define ROWM(aelem, macv, r0, r1, r2, r3, r4, r5) \
	VBROADCASTSD aelem, Z30; \
	VPTESTMQ.BCST nosign<>(SB), Z30, K2; \
	macv(MACM, r0, r1, r2, r3, r4, r5)

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
// a row (a narrower panel leaves the last ones idle); row is ROW or ROWM.
#define PASS4(zero, loop, row, LOADv, BLOADv, MACv, STOREv) \
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
	row(A0, MACv, Z0, Z1, Z2, Z3, Z4, Z5); \
	row(A1, MACv, Z6, Z7, Z8, Z9, Z10, Z11); \
	row(A2, MACv, Z12, Z13, Z14, Z15, Z16, Z17); \
	row(A3, MACv, Z18, Z19, Z20, Z21, Z22, Z23); \
	KNEXT(loop); \
	STOREv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	STOREv(C1, Z6, Z7, Z8, Z9, Z10, Z11); \
	STOREv(C2, Z12, Z13, Z14, Z15, Z16, Z17); \
	STOREv(C3, Z18, Z19, Z20, Z21, Z22, Z23); \
	JMP next

// PASS8 is an 8-row pass over a panel of v = 1-2 vectors, two accumulators
// a row; DX addresses rows 4-7, of a in the kk loop and of c around it.
#define PASS8(zero, loop, row, LOADv, BLOADv, MACv, STOREv) \
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
	row(A0, MACv, Z0, Z1, _, _, _, _); \
	row(A1, MACv, Z2, Z3, _, _, _, _); \
	row(A2, MACv, Z4, Z5, _, _, _, _); \
	row(A3, MACv, Z6, Z7, _, _, _, _); \
	row(A4, MACv, Z8, Z9, _, _, _, _); \
	row(A5, MACv, Z10, Z11, _, _, _, _); \
	row(A6, MACv, Z12, Z13, _, _, _, _); \
	row(A7, MACv, Z14, Z15, _, _, _, _); \
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
	JMP next

// PASS1 is a 1-row pass over a panel of v = 1-6 vectors: the rows a 4- or
// 8-row pass leaves over.
#define PASS1(zero, loop, row, LOADv, BLOADv, MACv, STOREv) \
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
	row(A0, MACv, Z0, Z1, Z2, Z3, Z4, Z5); \
	KNEXT(loop); \
	STOREv(C0, Z0, Z1, Z2, Z3, Z4, Z5); \
	JMP next

// RUNS tests the run of CX elements at BX in chunks of 8 with test(off,
// tmp, k), which ANDs into k the chunk's lanes that pass: four chunks at a
// time into four chains (K3, K2, K5, K6, so that the scan's latency is a
// quarter of its length), then one at a time into K3, and it leaves BX at
// the last 0-7 elements, K4 their lanes and K3 the AND of the chains.
#define RUNS(quad, one, tail, test) \
	KXNORW K3, K3, K3; \
	KXNORW K2, K2, K2; \
	KXNORW K5, K5, K5; \
	KXNORW K6, K6, K6; \
	CMPQ CX, $32; \
	JLT one; \
quad: \
	test(0, Z24, K3); \
	test(64, Z25, K2); \
	test(128, Z26, K5); \
	test(192, Z27, K6); \
	ADDQ $256, BX; \
	SUBQ $32, CX; \
	CMPQ CX, $32; \
	JGE quad; \
one: \
	CMPQ CX, $8; \
	JLT tail; \
	test(0, Z24, K3); \
	ADDQ $64, BX; \
	SUBQ $8, CX; \
	JMP one; \
tail: \
	MOVL $1, DX; \
	SHLL CX, DX; \
	DECL DX; \
	KMOVW DX, K4; \
	KANDW K2, K3, K3; \
	KANDW K5, K6, K6; \
	KANDW K6, K3, K3

// NONZERO passes an element with a bit set besides the sign (Z31 holds
// those bits), FINITE one whose exponent bits are not all set (Z31 holds
// them).
#define NONZERO(off, tmp, k)	VPTESTMQ off(BX), Z31, k, k
#define FINITE(off, tmp, k)	VPANDQ off(BX), Z31, tmp; VPCMPQ $4, Z31, tmp, k, k

// ASCAN sets ZF when no element of the run of CX elements at BX is +-0; its
// last elements are merged by K4 over nosign in every lane, so the lanes past
// the run pass.
#define ASCAN(quad, one, tail) \
	VPBROADCASTQ nosign<>(SB), Z31; \
	RUNS(quad, one, tail, NONZERO); \
	VMOVDQA64 Z31, Z30; \
	VMOVUPD (BX), K4, Z30; \
	VPTESTMQ Z31, Z30, K3, K3; \
	KMOVW K3, DX; \
	CMPL DX, $0xff

// BSCAN sets ZF when every element of b (k*n of them) is finite; its last
// elements are zero-masked by K4, so the lanes past b pass.
#define BSCAN(quad, one, tail) \
	MOVQ b+32(FP), BX; \
	MOVQ k+48(FP), CX; \
	IMULQ n+56(FP), CX; \
	MOVQ $0x7ff0000000000000, DX; \
	VPBROADCASTQ DX, Z31; \
	RUNS(quad, one, tail, FINITE); \
	VMOVUPD.Z (BX), K4, Z30; \
	VPANDQ Z30, Z31, Z30; \
	VPCMPQ $4, Z31, Z30, K3, K3; \
	KMOVW K3, DX; \
	CMPL DX, $0xff

// CSCAN jumps to plain unless the pass's block of c holds a -0, and to
// dirty if it does: its rows (pass of them, R10 bytes apart, from DI) of
// the panel's vectors (pid & 7), the last zero-masked by K1; K3 collects
// the lanes equal to -0 bit for bit.
#define CSCAN(row, vec, last, dirty) \
	MOVQ $0x8000000000000000, DX; \
	VPBROADCASTQ DX, Z31; \
	KXORW K3, K3, K3; \
	MOVQ DI, AX; \
	MOVQ pass-56(SP), DX; \
row: \
	MOVQ AX, BX; \
	MOVQ pid-40(SP), CX; \
	ANDQ $7, CX; \
	JMP last; \
vec: \
	VPCMPEQQ (BX), Z31, K2; \
	KORW K2, K3, K3; \
	ADDQ $64, BX; \
last: \
	DECQ CX; \
	JNZ vec; \
	VMOVUPD.Z (BX), K1, Z30; \
	VPCMPEQQ Z30, Z31, K2; \
	KORW K2, K3, K3; \
	ADDQ R10, AX; \
	DECQ DX; \
	JNZ row; \
	KORTESTW K3, K3; \
	JNZ dirty; \
	JMP plain

// BODY jumps to the pass body for panel id DX: 1-6 vectors to the first six
// labels, 9-14 (a 1-row pass) to the last six.
#define BODY(p6, p2, p1, p3, p4, p5, q6, q2, q1, q3, q4, q5) \
	CMPQ DX, $6; \
	JEQ p6; \
	CMPQ DX, $2; \
	JEQ p2; \
	CMPQ DX, $1; \
	JEQ p1; \
	CMPQ DX, $3; \
	JEQ p3; \
	CMPQ DX, $4; \
	JEQ p4; \
	CMPQ DX, $5; \
	JEQ p5; \
	CMPQ DX, $14; \
	JEQ q6; \
	CMPQ DX, $10; \
	JEQ q2; \
	CMPQ DX, $9; \
	JEQ q1; \
	CMPQ DX, $11; \
	JEQ q3; \
	CMPQ DX, $12; \
	JEQ q4; \
	JMP q5

// func mulRowsF64AVX512(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)
TEXT ·mulRowsF64AVX512(SB), NOSPLIT, $64-66
	MOVQ ars+16(FP), AX
	SHLQ $3, AX
	MOVQ AX, arsb-8(SP)
	MOVQ aks+24(FP), R12
	SHLQ $3, R12
	MOVQ n+56(FP), R13
	MOVQ R13, rem-24(SP)
	SHLQ $3, R13
	MOVQ $0, off-16(SP)

#include "mulrows_mode_amd64.h"

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
	MOVQ mode-64(SP), DX
	TESTQ DX, DX
	JZ plain
	CMPQ DX, $1
	JEQ masked
	CSCAN(ca, cb, cc, masked)

plain:
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	BODY(p6, p2, p1, p3, p4, p5, q6, q2, q1, q3, q4, q5)
masked:
	MOVQ SI, AX
	MOVQ bpan-32(SP), BX
	MOVQ k+48(FP), CX
	MOVQ pid-40(SP), DX
	BODY(m6, m2, m1, m3, m4, m5, r6, r2, r1, r3, r4, r5)
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
	PASS4(zp6, kp6, ROW, LOAD6, BLOAD6, MAC6, STORE6)
p5:
	PASS4(zp5, kp5, ROW, LOAD5, BLOAD5, MAC5, STORE5)
p4:
	PASS4(zp4, kp4, ROW, LOAD4, BLOAD4, MAC4, STORE4)
p3:
	PASS4(zp3, kp3, ROW, LOAD3, BLOAD3, MAC3, STORE3)
p2:
	PASS8(zp2, kp2, ROW, LOAD2, BLOAD2, MAC2, STORE2)
p1:
	PASS8(zp1, kp1, ROW, LOAD1, BLOAD1, MAC1, STORE1)
q6:
	PASS1(zq6, kq6, ROW, LOAD6, BLOAD6, MAC6, STORE6)
q5:
	PASS1(zq5, kq5, ROW, LOAD5, BLOAD5, MAC5, STORE5)
q4:
	PASS1(zq4, kq4, ROW, LOAD4, BLOAD4, MAC4, STORE4)
q3:
	PASS1(zq3, kq3, ROW, LOAD3, BLOAD3, MAC3, STORE3)
q2:
	PASS1(zq2, kq2, ROW, LOAD2, BLOAD2, MAC2, STORE2)
q1:
	PASS1(zq1, kq1, ROW, LOAD1, BLOAD1, MAC1, STORE1)

m6:
	PASS4(zm6, km6, ROWM, LOAD6, BLOAD6, MAC6, STORE6)
m5:
	PASS4(zm5, km5, ROWM, LOAD5, BLOAD5, MAC5, STORE5)
m4:
	PASS4(zm4, km4, ROWM, LOAD4, BLOAD4, MAC4, STORE4)
m3:
	PASS4(zm3, km3, ROWM, LOAD3, BLOAD3, MAC3, STORE3)
m2:
	PASS8(zm2, km2, ROWM, LOAD2, BLOAD2, MAC2, STORE2)
m1:
	PASS8(zm1, km1, ROWM, LOAD1, BLOAD1, MAC1, STORE1)
r6:
	PASS1(zr6, kr6, ROWM, LOAD6, BLOAD6, MAC6, STORE6)
r5:
	PASS1(zr5, kr5, ROWM, LOAD5, BLOAD5, MAC5, STORE5)
r4:
	PASS1(zr4, kr4, ROWM, LOAD4, BLOAD4, MAC4, STORE4)
r3:
	PASS1(zr3, kr3, ROWM, LOAD3, BLOAD3, MAC3, STORE3)
r2:
	PASS1(zr2, kr2, ROWM, LOAD2, BLOAD2, MAC2, STORE2)
r1:
	PASS1(zr1, kr1, ROWM, LOAD1, BLOAD1, MAC1, STORE1)
