#include "textflag.h"

// mulRowsF64 and mulRowsF32 are the AVX2 form of mulRowsGeneric (kernels.go):
//
//	for i in [0, m):  c[i*n + j] += Σ_kk a[i*ars + kk*aks] * b[kk*n + j],  j in [0, n)
//
// Vectorised across j only: a lane is an output cell, so each cell sees the
// multiplies and adds of the scalar loop, in the same ascending-kk order and
// with one rounding each (VMULP + VADDP, never FMA, no horizontal sums).
//
// A row of c is cut into column panels of 12, 4, 3, 2 or 1 vectors, then a
// half vector, then single elements; every panel is walked down all m rows
// before the next one starts. Every kk loop starts on a 64-byte boundary
// (PCALIGN), which also aligns the function, so its loops sit the same way
// in every binary wherever the linker puts it. Within a panel the
// accumulators stay in Y0-Y11 across the whole kk loop. A 12-vector panel
// takes one row per pass; the narrow ones take 2 or 4 rows per pass so that
// at least 8 independent add chains are in flight (an add is 4 cycles
// deep, two issue per cycle).
//
// Zero skipping takes no branch on an element. Each pass runs one of two
// bodies, the plain one or the masked one, as mulrows_mode_amd64.h picks
// them for both assembly levels (kernels.go has the argument). The
// masked body, per row and kk, sets Y14 to all ones where the broadcast a
// element compares unequal to +0 (all lanes, or none when it is +-0;
// NEQ_UQ, so a NaN element's terms are added, as mulRowsGeneric adds
// them), computes acc + product aside, and blends (VBLENDVP) that sum into
// acc under Y14: a masked-off lane keeps its accumulator, bit for bit,
// which is exactly a skipped term, whatever b and the cell hold.
//
//	AX  a cursor (kk loop)          SI  a, first row of the pass
//	BX  b cursor (kk loop)          DI  c, first row of the pass at the panel's first column
//	CX  kk counter                  R15 rows of this panel still to do
//	DX  scratch
//	R8,  R9   a row stride x1, x3   (bytes; 0 while a pass aliases its rows, see rows:)
//	R10, R11  c row stride x1, x3   (bytes; likewise)
//	R12 a kk stride (bytes)         R13 bytes in a row of b and of c
//	Y12 the broadcast a element     Y13 the product (the masked body: the sum)
//	Y14 the masked body's lanes     Y15 +0 in every lane (Y12-Y14 the scans' too)

#define A0 (AX)
#define A1 (AX)(R8*1)
#define A2 (AX)(R8*2)
#define A3 (AX)(R9*1)
#define C0 (DI)
#define C1 (DI)(R10*1)
#define C2 (DI)(R10*2)
#define C3 (DI)(R11*1)

// MAC: acc += a element * the vector at off in the current row of b. The
// product is the add's first source so that, of two NaNs, the newer one
// wins, as in the compiled scalar loop. MACM is the masked body's: the
// same sum, kept only in the lanes Y14 selects. The H (half vector, X) and
// S (one element, scalar) forms serve the last columns.
#define MAC(off, acc)	MULP off(BX), Y12, Y13; ADDP acc, Y13, acc
#define MACM(off, acc)	MULP off(BX), Y12, Y13; ADDP acc, Y13, Y13; BLENDVP Y14, Y13, acc, acc
#define MAC1(acc)	MAC(0, acc)
#define MAC1M(acc)	MACM(0, acc)
#define MACH(acc)	MULP (BX), X12, X13; ADDP acc, X13, acc
#define MACHM(acc)	MULP (BX), X12, X13; ADDP acc, X13, X13; BLENDVP X14, X13, acc, acc
#define MACS(acc)	MULS (BX), X12, X13; ADDS acc, X13, acc
#define MACSM(acc)	MULS (BX), X12, X13; ADDS acc, X13, X13; BLENDVP X14, X13, acc, acc
#define MAC2(mac, o, r0, r1)	mac(o, r0); mac(o+32, r1)
#define MAC3(mac, o, r0, r1, r2)	MAC2(mac, o, r0, r1); mac(o+64, r2)
#define MAC4(mac, o, r0, r1, r2, r3)	MAC3(mac, o, r0, r1, r2); mac(o+96, r3)

#define LOAD2(o, row, r0, r1)	MOVUP o row, r0; MOVUP o+32 row, r1
#define LOAD3(o, row, r0, r1, r2)	LOAD2(o, row, r0, r1); MOVUP o+64 row, r2
#define LOAD4(o, row, r0, r1, r2, r3)	LOAD3(o, row, r0, r1, r2); MOVUP o+96 row, r3
#define STORE2(o, row, r0, r1)	MOVUP r0, o row; MOVUP r1, o+32 row
#define STORE3(o, row, r0, r1, r2)	STORE2(o, row, r0, r1); MOVUP r2, o+64 row
#define STORE4(o, row, r0, r1, r2, r3)	STORE3(o, row, r0, r1, r2); MOVUP r3, o+96 row

// ROW is one row's share of a kk step in the plain body: every term added.
// ROWM is the masked body's: Y14 is set from the broadcast a element, then
// the macs blend under it.
#define ROW(aelem, macs) \
	BCAST aelem, Y12; \
	macs

#define ROWM(aelem, macs) \
	BCAST aelem, Y12; \
	CMPP $4, Y15, Y12, Y14; \
	macs

// KNEXT closes a kk loop.
#define KNEXT(loop) \
	ADDQ R12, AX; \
	ADDQ R13, BX; \
	DECQ CX; \
	JNZ loop

// PANEL offers one panel shape: id, columns, rows per pass.
#define PANEL(id, cols, rows) \
	MOVQ $id, AX; \
	MOVQ $(cols), BX; \
	MOVQ $rows, DX; \
	CMPQ CX, BX; \
	JGE picked

// BODY jumps to the pass body for panel id DX (12, 3, 2, 4, 1, 5 for a
// half vector, 0 for one element).
#define BODY(p12, p3, p2, p4, p1, phalf, pelem) \
	CMPQ DX, $12; \
	JEQ p12; \
	CMPQ DX, $3; \
	JEQ p3; \
	CMPQ DX, $2; \
	JEQ p2; \
	CMPQ DX, $4; \
	JEQ p4; \
	CMPQ DX, $1; \
	JEQ p1; \
	CMPQ DX, $5; \
	JEQ phalf; \
	JMP pelem

// RUNS tests the run of CX elements at BX, a vector at a time, then an
// element at a time: vtest(tmp) and stest(tmp) set tmp's lanes that fail
// (all ones) for the vector or the element at BX, and Y14 collects them.
// It leaves ZF set when every element passed.
#define RUNS(vec, elem, done, vtest, stest) \
	VPXOR Y14, Y14, Y14; \
vec: \
	CMPQ CX, $LANES; \
	JLT elem; \
	vtest(Y13); \
	VPOR Y13, Y14, Y14; \
	ADDQ $32, BX; \
	SUBQ $LANES, CX; \
	JMP vec; \
elem: \
	TESTQ CX, CX; \
	JZ done; \
	stest(X13); \
	VPOR Y13, Y14, Y14; \
	ADDQ $(1<<ESHIFT), BX; \
	DECQ CX; \
	JMP elem; \
done: \
	VPTEST Y14, Y14

// An element fails ISZERO when it compares equal to +0 (so +-0 and
// nothing else), and ISINF when its exponent bits (Y12, X12) are all set
// (Inf, NaN). A single element is loaded into the low lane of a zeroed
// register, whose other lanes pass.
#define VISZERO(t)	CMPP $0, (BX), Y15, t
#define SISZERO(t)	CMPS $0, (BX), X15, t
#define VISINF(t)	VPAND (BX), Y12, t; PCMPEQ Y12, t, t
#define SISINF(t)	MOVS (BX), t; VPAND X12, t, t; PCMPEQ X12, t, t

// ASCAN sets ZF when no element of the run of CX elements at BX is +-0,
// BSCAN when every element of b (k*n of them) is finite.
#define ASCAN(vec, elem, done)	RUNS(vec, elem, done, VISZERO, SISZERO)
#define BSCAN(vec, elem, done) \
	ICONST(EXPBITS); \
	MOVQ b+32(FP), BX; \
	MOVQ k+48(FP), CX; \
	IMULQ n+56(FP), CX; \
	RUNS(vec, elem, done, VISINF, SISINF)

// CSCAN jumps to plain unless the pass's block of c holds a -0, and to
// dirty if it does: its rows (pass of them, R10 bytes apart, from DI) of
// the panel's pcols elements, a vector at a time, then an element at a
// time; Y14 collects the lanes equal to -0 bit for bit.
#define CSCAN(row, vec, vcheck, elem, echeck, dirty) \
	ICONST(NEGZERO); \
	VPXOR Y14, Y14, Y14; \
	MOVQ DI, AX; \
	MOVQ pass-56(SP), DX; \
row: \
	MOVQ AX, BX; \
	MOVQ pcols-48(SP), CX; \
	JMP vcheck; \
vec: \
	PCMPEQ (BX), Y12, Y13; \
	VPOR Y13, Y14, Y14; \
	ADDQ $32, BX; \
	SUBQ $LANES, CX; \
vcheck: \
	CMPQ CX, $LANES; \
	JGE vec; \
	JMP echeck; \
elem: \
	MOVS (BX), X13; \
	PCMPEQ X12, X13, X13; \
	VPOR Y13, Y14, Y14; \
	ADDQ $(1<<ESHIFT), BX; \
	DECQ CX; \
echeck: \
	TESTQ CX, CX; \
	JNZ elem; \
	ADDQ R10, AX; \
	DECQ DX; \
	JNZ row; \
	VPTEST Y14, Y14; \
	JNZ dirty; \
	JMP plain

// FRESH jumps to zero when zeroC is set: the pass's accumulators then start
// at +0 in registers instead of loading c, which is bitwise the same as
// loading a zeroed c (the first add is p + +0 either way).
#define FRESH(zero) \
	CMPB zeroC+65(FP), $0; \
	JNE zero

#define ZERO2(r0, r1)	VXORPD r0, r0, r0; VXORPD r1, r1, r1
#define ZERO3(r0, r1, r2)	ZERO2(r0, r1); VXORPD r2, r2, r2
#define ZERO4(r0, r1, r2, r3)	ZERO3(r0, r1, r2); VXORPD r3, r3, r3

// The pass bodies; row is ROW or ROWM, mac MAC or MACM to match.
// PASS12 is 1 row x 12 vectors.
#define PASS12(zero, loop, row, mac) \
	FRESH(zero); \
	LOAD4(0, C0, Y0, Y1, Y2, Y3); \
	LOAD4(128, C0, Y4, Y5, Y6, Y7); \
	LOAD4(256, C0, Y8, Y9, Y10, Y11); \
	JMP loop; \
zero: \
	ZERO4(Y0, Y1, Y2, Y3); \
	ZERO4(Y4, Y5, Y6, Y7); \
	ZERO4(Y8, Y9, Y10, Y11); \
	PCALIGN $64; \
loop: \
	row(A0, MAC4(mac, 0, Y0, Y1, Y2, Y3); MAC4(mac, 128, Y4, Y5, Y6, Y7); MAC4(mac, 256, Y8, Y9, Y10, Y11)); \
	KNEXT(loop); \
	STORE4(0, C0, Y0, Y1, Y2, Y3); \
	STORE4(128, C0, Y4, Y5, Y6, Y7); \
	STORE4(256, C0, Y8, Y9, Y10, Y11); \
	JMP next

// PASS4 is 2 rows x 4 vectors.
#define PASS4(zero, loop, row, mac) \
	FRESH(zero); \
	LOAD4(0, C0, Y0, Y1, Y2, Y3); \
	LOAD4(0, C1, Y4, Y5, Y6, Y7); \
	JMP loop; \
zero: \
	ZERO4(Y0, Y1, Y2, Y3); \
	ZERO4(Y4, Y5, Y6, Y7); \
	PCALIGN $64; \
loop: \
	row(A0, MAC4(mac, 0, Y0, Y1, Y2, Y3)); \
	row(A1, MAC4(mac, 0, Y4, Y5, Y6, Y7)); \
	KNEXT(loop); \
	STORE4(0, C0, Y0, Y1, Y2, Y3); \
	STORE4(0, C1, Y4, Y5, Y6, Y7); \
	JMP next

// PASS3 is 4 rows x 3 vectors.
#define PASS3(zero, loop, row, mac) \
	FRESH(zero); \
	LOAD3(0, C0, Y0, Y1, Y2); \
	LOAD3(0, C1, Y3, Y4, Y5); \
	LOAD3(0, C2, Y6, Y7, Y8); \
	LOAD3(0, C3, Y9, Y10, Y11); \
	JMP loop; \
zero: \
	ZERO4(Y0, Y1, Y2, Y3); \
	ZERO4(Y4, Y5, Y6, Y7); \
	ZERO4(Y8, Y9, Y10, Y11); \
	PCALIGN $64; \
loop: \
	row(A0, MAC3(mac, 0, Y0, Y1, Y2)); \
	row(A1, MAC3(mac, 0, Y3, Y4, Y5)); \
	row(A2, MAC3(mac, 0, Y6, Y7, Y8)); \
	row(A3, MAC3(mac, 0, Y9, Y10, Y11)); \
	KNEXT(loop); \
	STORE3(0, C0, Y0, Y1, Y2); \
	STORE3(0, C1, Y3, Y4, Y5); \
	STORE3(0, C2, Y6, Y7, Y8); \
	STORE3(0, C3, Y9, Y10, Y11); \
	JMP next

// PASS2 is 4 rows x 2 vectors.
#define PASS2(zero, loop, row, mac) \
	FRESH(zero); \
	LOAD2(0, C0, Y0, Y1); \
	LOAD2(0, C1, Y2, Y3); \
	LOAD2(0, C2, Y4, Y5); \
	LOAD2(0, C3, Y6, Y7); \
	JMP loop; \
zero: \
	ZERO4(Y0, Y1, Y2, Y3); \
	ZERO4(Y4, Y5, Y6, Y7); \
	PCALIGN $64; \
loop: \
	row(A0, MAC2(mac, 0, Y0, Y1)); \
	row(A1, MAC2(mac, 0, Y2, Y3)); \
	row(A2, MAC2(mac, 0, Y4, Y5)); \
	row(A3, MAC2(mac, 0, Y6, Y7)); \
	KNEXT(loop); \
	STORE2(0, C0, Y0, Y1); \
	STORE2(0, C1, Y2, Y3); \
	STORE2(0, C2, Y4, Y5); \
	STORE2(0, C3, Y6, Y7); \
	JMP next

// ONECOL is a 4-row pass over a panel one register wide: a vector (Y), a
// half vector (X) or a single element (X, scalar instructions).
#define ONECOL(mov, row, mac, loop, zero, r0, r1, r2, r3) \
	FRESH(zero); \
	mov C0, r0; \
	mov C1, r1; \
	mov C2, r2; \
	mov C3, r3; \
	JMP loop; \
zero: \
	ZERO4(r0, r1, r2, r3); \
	PCALIGN $64; \
loop: \
	row(A0, mac(r0)); \
	row(A1, mac(r1)); \
	row(A2, mac(r2)); \
	row(A3, mac(r3)); \
	KNEXT(loop); \
	mov r0, C0; \
	mov r1, C1; \
	mov r2, C2; \
	mov r3, C3; \
	JMP next

// func mulRowsF64(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)
#define LANES 4
#define ESHIFT 3
#define MULP VMULPD
#define ADDP VADDPD
#define MULS VMULSD
#define ADDS VADDSD
#define MOVUP VMOVUPD
#define MOVS VMOVSD
#define BCAST VBROADCASTSD
#define CMPP VCMPPD
#define CMPS VCMPSD
#define BLENDVP VBLENDVPD
#define PCMPEQ VPCMPEQQ
#define EXPBITS 0x7ff0000000000000
#define NEGZERO 0x8000000000000000
#define ICONST(v)	MOVQ $v, DX; VMOVQ DX, X12; VPBROADCASTQ X12, Y12
TEXT ·mulRowsF64(SB), NOSPLIT, $64-66
#include "mulrows_amd64.h"

#undef LANES
#undef ESHIFT
#undef MULP
#undef ADDP
#undef MULS
#undef ADDS
#undef MOVUP
#undef MOVS
#undef BCAST
#undef CMPP
#undef CMPS
#undef BLENDVP
#undef PCMPEQ
#undef EXPBITS
#undef NEGZERO
#undef ICONST

// func mulRowsF32(c, a *float32, ars, aks int, b *float32, m, k, n int, skipZero, zeroC bool)
#define LANES 8
#define ESHIFT 2
#define MULP VMULPS
#define ADDP VADDPS
#define MULS VMULSS
#define ADDS VADDSS
#define MOVUP VMOVUPS
#define MOVS VMOVSS
#define BCAST VBROADCASTSS
#define CMPP VCMPPS
#define CMPS VCMPSS
#define BLENDVP VBLENDVPS
#define PCMPEQ VPCMPEQD
#define EXPBITS 0x7f800000
#define NEGZERO 0x80000000
#define ICONST(v)	MOVL $v, DX; VMOVD DX, X12; VPBROADCASTD X12, Y12
TEXT ·mulRowsF32(SB), NOSPLIT, $64-66
#include "mulrows_amd64.h"

// func cpuLevel() level
//
// AVX2 (level 1) is usable when the CPU has it (leaf 7 EBX bit 5) and the
// OS saves the YMM state (leaf 1 ECX OSXSAVE+AVX, XCR0 bits 1 and 2).
// AVX-512 (level 2) needs AVX-512F as well (leaf 7 EBX bit 16) and the
// opmask and ZMM state saved too (XCR0 bits 5, 6 and 7); the kernels use
// AVX-512F instructions only.
TEXT ·cpuLevel(SB), NOSPLIT, $0-8
	MOVQ $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT done
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE done
	XORL CX, CX
	XGETBV
	MOVL AX, R8
	ANDL $6, AX
	CMPL AX, $6
	JNE done
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL $5, BX
	JCC done
	MOVQ $1, ret+0(FP)
	BTL $16, BX
	JCC done
	ANDL $0xe6, R8
	CMPL R8, $0xe6
	JNE done
	MOVQ $2, ret+0(FP)
done:
	RET
