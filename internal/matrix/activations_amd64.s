#include "textflag.h"

// sigmoidAVX2 and tanhAVX2 are the AVX2 form of sigmoidGeneric and
// tanhGeneric (activations.go): a lane is an element, and each lane does the
// twin's operations in the twin's order, one rounding each (never FMA), so
// every output has the twin's bits.
//
// The main loop takes two vectors per pass, the steps of one interleaved
// with the other's: the exp core is one long dependency chain (the Horner
// steps), and two chains side by side keep the vector units busy. Then one
// vector if 4-7 elements are left, and the last 1-3 through a masked load
// and store (the masked-out lanes compute on +0 and are never written).
//
//	SI  src cursor    DI  dst cursor    CX  elements left
//	Y7  the tail's lane mask            Y15 1.0 in every lane
//
// Constants are rows of expTab, in its order.

#define SIGN	·expTab+0(SB)
#define ABS	·expTab+32(SB)
#define XMIN	·expTab+64(SB)
#define LOG2E	·expTab+96(SB)
#define SHIFT	·expTab+128(SB)
#define LN2HI	·expTab+160(SB)
#define LN2LO	·expTab+192(SB)
#define BIAS	·expTab+224(SB)
#define ONE	·expTab+256(SB)
#define TWO	·expTab+288(SB)
#define LANE	·expTab+320(SB)
#define C13	·expTab+352(SB)
#define C12	·expTab+384(SB)
#define C11	·expTab+416(SB)
#define C10	·expTab+448(SB)
#define C9	·expTab+480(SB)
#define C8	·expTab+512(SB)
#define C7	·expTab+544(SB)
#define C6	·expTab+576(SB)
#define C5	·expTab+608(SB)
#define C4	·expTab+640(SB)
#define C3	·expTab+672(SB)
#define C2	·expTab+704(SB)

// A chain is the registers one vector's pass runs in — the input, x, scale,
// p, a scratch t, fl (the lanes below expMin) and the output — and a step is
// a macro over a chain. ON1(step) runs a step on chain A; ON2(step) on A
// then B, so a body written once as a sequence of steps runs on one vector
// or on two interleaved. ONC1/ONC2 are the same for a step that also takes
// a constant.
#define ON1(step)	step(Y6, Y0, Y1, Y2, Y3, Y5, Y4)
#define ON2(step)	ON1(step); step(Y14, Y8, Y9, Y10, Y11, Y13, Y12)
#define ONC1(step, c)	step(c, Y6, Y0, Y1, Y2, Y3, Y5, Y4)
#define ONC2(step, c)	ONC1(step, c); step(c, Y14, Y8, Y9, Y10, Y11, Y13, Y12)

// EXPCORE is expCore: x (<= 0 or NaN) in, scale = 2^k and p = expm1(r) out;
// x ends holding r.
#define CLAMP(in, x, sc, p, t, fl, out)	VCMPPD $0x11, XMIN, x, fl; VBLENDVPD fl, XMIN, x, x
#define ROUNDK(in, x, sc, p, t, fl, out)	VMULPD LOG2E, x, sc; VADDPD SHIFT, sc, sc; VSUBPD SHIFT, sc, p
#define REDUCE(in, x, sc, p, t, fl, out)	VMULPD LN2HI, p, t; VSUBPD t, x, x; VMULPD LN2LO, p, p; VSUBPD p, x, x
#define POW2K(in, x, sc, p, t, fl, out)	VPADDQ BIAS, sc, sc; VPSLLQ $52, sc, sc; VANDNPD sc, fl, sc
#define POLY(in, x, sc, p, t, fl, out)	VMULPD C13, x, p; VADDPD C12, p, p
#define HORNER(c, in, x, sc, p, t, fl, out)	VMULPD x, p, p; VADDPD c, p, p
#define EXPM1R(in, x, sc, p, t, fl, out)	VMULPD x, x, t; VMULPD t, p, p; VADDPD x, p, p
#define EXPCORE(ON, ONC) \
	ON(CLAMP); ON(ROUNDK); ON(REDUCE); ON(POW2K); ON(POLY); \
	ONC(HORNER, C11); ONC(HORNER, C10); ONC(HORNER, C9); ONC(HORNER, C8); ONC(HORNER, C7); \
	ONC(HORNER, C6); ONC(HORNER, C5); ONC(HORNER, C4); ONC(HORNER, C3); ONC(HORNER, C2); \
	ON(EXPM1R)

#define NEGABS(in, x, sc, p, t, fl, out)	VORPD SIGN, in, x
#define DOUBLE(in, x, sc, p, t, fl, out)	VADDPD x, x, x

// SIGMOID: e = scale + scale*p, out = num/(1+e) with num = e where the
// input's sign bit is set, 1 elsewhere.
#define SIGOUT(in, x, sc, p, t, fl, out) \
	VMULPD p, sc, p; VADDPD sc, p, p; VADDPD Y15, p, t; VBLENDVPD in, p, Y15, out; VDIVPD t, out, out
#define SIGMOID(ON, ONC)	ON(NEGABS); EXPCORE(ON, ONC); ON(SIGOUT)

// TANH: em = (scale - 1) + scale*p, out = em/(2+em) with its sign bit
// replaced by the input's.
#define TANHOUT(in, x, sc, p, t, fl, out) \
	VMULPD p, sc, p; VSUBPD Y15, sc, sc; VADDPD p, sc, p; VADDPD TWO, p, t; VDIVPD t, p, out; \
	VANDPD ABS, out, out; VANDPD SIGN, in, in; VORPD in, out, out
#define TANH(ON, ONC)	ON(NEGABS); ON(DOUBLE); EXPCORE(ON, ONC); ON(TANHOUT)

// ACTIVATE runs fn over n elements of src into dst. Every instruction is
// VEX-encoded (VMOVQ, not MOVQ, into X7): one legacy SSE instruction while
// the upper halves are dirty costs a state transition, which measured here
// as ~150 ns per call.
#define ACTIVATE(fn) \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ n+16(FP), CX; \
	VMOVUPD ONE, Y15; \
pairs: \
	CMPQ CX, $8; \
	JLT one; \
	VMOVUPD (SI), Y6; \
	VMOVUPD 32(SI), Y14; \
	fn(ON2, ONC2); \
	VMOVUPD Y4, (DI); \
	VMOVUPD Y12, 32(DI); \
	ADDQ $64, SI; \
	ADDQ $64, DI; \
	SUBQ $8, CX; \
	JMP pairs; \
one: \
	CMPQ CX, $4; \
	JLT tail; \
	VMOVUPD (SI), Y6; \
	fn(ON1, ONC1); \
	VMOVUPD Y4, (DI); \
	ADDQ $32, SI; \
	ADDQ $32, DI; \
	SUBQ $4, CX; \
tail: \
	TESTQ CX, CX; \
	JZ done; \
	VMOVQ CX, X7; \
	VPBROADCASTQ X7, Y7; \
	VPCMPGTQ LANE, Y7, Y7; \
	VMASKMOVPD (SI), Y7, Y6; \
	fn(ON1, ONC1); \
	VMASKMOVPD Y4, Y7, (DI); \
done: \
	VZEROUPPER; \
	RET

// func sigmoidAVX2(dst, src *float64, n int)
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-24
	ACTIVATE(SIGMOID)

// func tanhAVX2(dst, src *float64, n int)
TEXT ·tanhAVX2(SB), NOSPLIT, $0-24
	ACTIVATE(TANH)
