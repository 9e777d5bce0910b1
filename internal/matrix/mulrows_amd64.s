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
// before the next one starts. Within a panel the accumulators stay in
// Y0-Y11 across the whole kk loop. A 12-vector panel takes one row per pass;
// the narrow ones take 2 or 4 rows per pass so that at least 8 independent
// add chains are in flight (an add is 4 cycles deep, two issue per cycle).
//
//	AX  a cursor (kk loop)          SI  a, first row of the pass
//	BX  b cursor (kk loop)          DI  c, first row of the pass at the panel's first column
//	CX  kk counter                  R15 rows of this panel still to do
//	DX  scratch
//	R8,  R9   a row stride x1, x3   (bytes; 0 while a pass aliases its rows, see rows:)
//	R10, R11  c row stride x1, x3   (bytes; likewise)
//	R12 a kk stride (bytes)         R13 bytes in a row of b and of c
//	R14 all element bits but the sign
//	Y12 the broadcast a element     Y13 the product

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
// wins, as in the compiled scalar loop.
#define MAC(off, acc)	MULP off(BX), Y12, Y13; ADDP acc, Y13, acc
#define MACH(acc)	MULP (BX), X12, X13; ADDP acc, X13, acc
#define MACS(acc)	MULS (BX), X12, X13; ADDS acc, X13, acc
#define MAC2(o, r0, r1)	MAC(o, r0); MAC(o+32, r1)
#define MAC3(o, r0, r1, r2)	MAC2(o, r0, r1); MAC(o+64, r2)
#define MAC4(o, r0, r1, r2, r3)	MAC3(o, r0, r1, r2); MAC(o+96, r3)

#define LOAD2(o, row, r0, r1)	MOVUP o row, r0; MOVUP o+32 row, r1
#define LOAD3(o, row, r0, r1, r2)	LOAD2(o, row, r0, r1); MOVUP o+64 row, r2
#define LOAD4(o, row, r0, r1, r2, r3)	LOAD3(o, row, r0, r1, r2); MOVUP o+96 row, r3
#define STORE2(o, row, r0, r1)	MOVUP r0, o row; MOVUP r1, o+32 row
#define STORE3(o, row, r0, r1, r2)	STORE2(o, row, r0, r1); MOVUP r2, o+64 row
#define STORE4(o, row, r0, r1, r2, r3)	STORE3(o, row, r0, r1, r2); MOVUP r3, o+96 row

// ROW is one row's share of a kk step. R14 holds every bit but the sign, so
// the TEST is zero exactly when the element is +-0; only then is the
// skipZero argument looked at.
#define ROW(aelem, keep, skip, macs) \
	TESTMASK aelem, R14; \
	JNZ keep; \
	CMPB skipZero+64(FP), $0; \
	JNE skip; \
keep: \
	BCAST aelem, Y12; \
	macs; \
skip:

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

// ONECOL is a 4-row pass over a panel one register wide: a vector (Y), a
// half vector (X) or a single element (X, scalar instructions).
#define ONECOL(mov, mac, loop, ka, sa, kb, sb, kc, sc, kd, sd, r0, r1, r2, r3) \
	mov C0, r0; \
	mov C1, r1; \
	mov C2, r2; \
	mov C3, r3; \
loop: \
	ROW(A0, ka, sa, mac(r0)) \
	ROW(A1, kb, sb, mac(r1)) \
	ROW(A2, kc, sc, mac(r2)) \
	ROW(A3, kd, sd, mac(r3)) \
	KNEXT(loop); \
	mov r0, C0; \
	mov r1, C1; \
	mov r2, C2; \
	mov r3, C3; \
	JMP next

#define MAC1(acc)	MAC(0, acc)


// func mulRowsF64(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero bool)
#define LANES 4
#define ESHIFT 3
#define NOSIGN 0x7fffffffffffffff
#define MULP VMULPD
#define ADDP VADDPD
#define MULS VMULSD
#define ADDS VADDSD
#define MOVUP VMOVUPD
#define MOVS VMOVSD
#define BCAST VBROADCASTSD
#define TESTMASK TESTQ
TEXT ·mulRowsF64(SB), NOSPLIT, $56-65
#include "mulrows_amd64.h"

#undef LANES
#undef ESHIFT
#undef NOSIGN
#undef MULP
#undef ADDP
#undef MULS
#undef ADDS
#undef MOVUP
#undef MOVS
#undef BCAST
#undef TESTMASK

// func mulRowsF32(c, a *float32, ars, aks int, b *float32, m, k, n int, skipZero bool)
#define LANES 8
#define ESHIFT 2
#define NOSIGN 0x7fffffff
#define MULP VMULPS
#define ADDP VADDPS
#define MULS VMULSS
#define ADDS VADDSS
#define MOVUP VMOVUPS
#define MOVS VMOVSS
#define BCAST VBROADCASTSS
#define TESTMASK TESTL
TEXT ·mulRowsF32(SB), NOSPLIT, $56-65
#include "mulrows_amd64.h"

// func hasAVX2() bool
//
// AVX2 is usable when the CPU has it (leaf 7 EBX bit 5) and the OS saves
// the YMM state (leaf 1 ECX OSXSAVE+AVX, XCR0 bits 1 and 2).
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	XORL AX, AX
	CPUID
	CMPL AX, $7
	JLT noavx2
	MOVL $1, AX
	XORL CX, CX
	CPUID
	ANDL $(3<<27), CX
	CMPL CX, $(3<<27)
	JNE noavx2
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE noavx2
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL $5, BX
	JCC noavx2
	MOVB $1, ret+0(FP)
noavx2:
	RET
