// mulrows_mode_amd64.h: the first lines of the row kernels, after the
// strides are set up. They set mode-64(SP), the body every pass of this
// call runs: 0, the plain one; 1, the masked one; 2, the masked one only
// when the pass's block of c holds a -0 (CSCAN).
//
// Adding the term of a +-0 a element gives +-0 when its b element is
// finite, and acc + +-0 is acc bit for bit unless acc is -0. An
// accumulator is -0 only if its cell started at -0 (a sum in
// round-to-nearest is -0 only when both addends are). So the plain body is
// exact unless skipZero is on, a holds a +-0, b an Inf or a NaN, or
// (without zeroC) a cell starts at -0.
//
// The including file defines ASCAN and BSCAN, its vector scans of a run of
// CX elements of a from BX and of all k*n elements of b; each takes three
// labels and sets ZF when no element is +-0, or every element is finite.
// a is looked at only when it is one run of m*k elements (aks 1 and ars
// k, as MulInto calls; or ars 1 and aks m, as MulTransposeA* does): R15
// holds m*k then, and 0 when a is not a run or is known to hold a +-0.
	MOVQ $0, mode-64(SP)
	CMPB skipZero+64(FP), $0
	JEQ pick
	XORQ R15, R15
	MOVQ k+48(FP), AX
	MOVQ ars+16(FP), BX
	MOVQ aks+24(FP), CX
	CMPQ CX, $1
	JNE acols
	CMPQ BX, AX
	JEQ arun
acols:
	CMPQ BX, $1
	JNE achecked
	CMPQ CX, m+40(FP)
	JNE achecked
arun:
	MOVQ AX, R15
	IMULQ m+40(FP), R15
achecked:
	CMPB zeroC+65(FP), $0
	JEQ accum
	// c is overwritten: only a and b matter. Look first at the one that
	// is cheaper to read (a's test costs about half of b's an element).
	TESTQ R15, R15
	JZ zb
	MOVQ n+56(FP), AX
	SHLQ $1, AX
	CMPQ AX, m+40(FP)
	JLT zb
	MOVQ a+8(FP), BX
	MOVQ R15, CX
	ASCAN(zaq, zao, zat)
	JEQ pick
	XORQ R15, R15
zb:
	BSCAN(zbq, zbo, zbt)
	JEQ pick
	TESTQ R15, R15
	JZ masked1
	MOVQ a+8(FP), BX
	MOVQ R15, CX
	ASCAN(zcq, zco, zct)
	JEQ pick
masked1:
	MOVQ $1, mode-64(SP)
	JMP pick
accum:
	TESTQ R15, R15
	JZ ab
	MOVQ a+8(FP), BX
	MOVQ R15, CX
	ASCAN(aaq, aao, aat)
	JEQ pick
ab:
	BSCAN(abq, abo, abt)
	JNE masked1
	MOVQ $2, mode-64(SP)
