#include "textflag.h"

// The AVX2 form of laggedUniformsGeneric (uniforms.go). A lane is an
// element: it adds tap to feed as a 64-bit integer, stores the sum back,
// and converts its low 63 bits v to v·2⁻⁶³ exactly. The high 31 bits
// go into the mantissa of 2²¹, where its lowest bit weighs 2⁻³¹, and the
// low 32 bits into that of 2⁻¹¹, where it weighs 2⁻⁶³; taking each constant
// off again leaves hi·2⁻³¹ and lo·2⁻⁶³, both exact, and their one rounded
// sum is float64(v)·2⁻⁶³ (the twin's conversion rounds once, to nearest,
// too, and scaling by a power of two above the subnormals is exact). A
// lane that reads 1 sets its bits in Y11, the OR of every lane's compare
// with 1, which is tested once. A masked-out tail lane loads zeros, so it
// reads 0, and is never written.
//
//	DI  feed    SI  tap    R8  dst    AX  byte offset    CX  elements left

#define HI	·uniformTab+0(SB)
#define LO	·uniformTab+32(SB)
#define ONE	·uniformTab+64(SB)

#define TMASK	Y7
#define TMASKX	X7
#include "lanes_amd64.h"

// UNIFORM is one vector of four lanes.
//
//	Y12  2²¹    Y13  2⁻¹¹    Y15  1    Y11  lanes that read 1
#define UNIFORM(LD, ST) \
	LD((DI)(AX*1), Y0); \
	LD((SI)(AX*1), Y1); \
	VPADDQ Y1, Y0, Y0; \
	ST(Y0, (DI)(AX*1)); \
	VPSLLQ $1, Y0, Y1; \
	VPSRLQ $33, Y1, Y1; \
	VPOR Y12, Y1, Y1; \
	VSUBPD Y12, Y1, Y1; \
	VPBLENDD $0xaa, Y13, Y0, Y2; \
	VSUBPD Y13, Y2, Y2; \
	VADDPD Y2, Y1, Y1; \
	ST(Y1, (R8)(AX*1)); \
	VCMPPD $0, Y15, Y1, Y1; \
	VPOR Y1, Y11, Y11

// func laggedUniformsAVX2(dst *float64, feed, tap *uint64, n int) bool
TEXT ·laggedUniformsAVX2(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), R8
	MOVQ feed+8(FP), DI
	MOVQ tap+16(FP), SI
	MOVQ n+24(FP), CX
	VMOVUPD HI, Y12
	VMOVUPD LO, Y13
	VMOVUPD ONE, Y15
	VPXOR Y11, Y11, Y11
	XORQ AX, AX
	SUBQ $4, CX
	JLT tail
	PCALIGN $64

vec:
	UNIFORM(LOADV, STOREV)
	ADDQ $32, AX
	SUBQ $4, CX
	JGE vec

tail:
	ADDQ $4, CX
	JZ done
	TAILMASK(CX)
	UNIFORM(LOADM, STOREM)

done:
	VPTEST Y11, Y11
	SETNE ret+32(FP)
	VZEROUPPER
	RET
