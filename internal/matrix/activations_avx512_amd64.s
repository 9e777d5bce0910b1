#include "textflag.h"

// sigmoidAVX512 and tanhAVX512 are sigmoidAVX2 and tanhAVX2
// (activations_amd64.s) at eight lanes: a lane is an element, and each lane
// does the twin's operations in the twin's order, one rounding each (never
// FMA), so every output has the twin's bits.
//
// The differences are in form only. A constant is broadcast from expTab
// (the first value of its row) inside the instruction that reads it. A
// compare writes a K register, and a blend is VBLENDMPD or a masked
// instruction under it. The bit operations are the integer forms (VPORQ,
// VPANDQ), which need AVX-512F only.
//
// The exp core is one long dependency chain (the Horner steps), so a
// vector's latency, not the vector units, bounds a lone pass. With 32 Z
// registers the main loop interleaves four vectors' chains per pass (the
// AVX2 kernel has room for two) and starts on a 64-byte boundary. Then two
// vectors if 16-31 elements are left, one if 8-15, and the last 1-7 as one
// vector under the K1 lane mask (the masked-out lanes compute on +0 and are
// never written).
//
//	SI  src cursor    DI  dst cursor    CX  elements left
//	K1  the tail's lane mask            Z31 1.0 in every lane

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

// A chain, as in activations_amd64.s: input, x, scale, p, a scratch t, a K
// register fl (the lanes below expMin, then the lanes whose input has its
// sign bit set) and the output. ON1, ON2 and ON4 run a step on one, two or
// four chains (A, B, C, D); ONC1, ONC2 and ONC4 a step that takes a
// constant.
#define ON1(step)	step(Z0, Z1, Z2, Z3, Z4, K2, Z5)
#define ON2(step)	ON1(step); step(Z6, Z7, Z8, Z9, Z10, K3, Z11)
#define ON4(step)	ON2(step); step(Z12, Z13, Z14, Z15, Z16, K4, Z17); step(Z18, Z19, Z20, Z21, Z22, K5, Z23)
#define ONC1(step, c)	step(c, Z0, Z1, Z2, Z3, Z4, K2, Z5)
#define ONC2(step, c)	ONC1(step, c); step(c, Z6, Z7, Z8, Z9, Z10, K3, Z11)
#define ONC4(step, c)	ONC2(step, c); step(c, Z12, Z13, Z14, Z15, Z16, K4, Z17); step(c, Z18, Z19, Z20, Z21, Z22, K5, Z23)

// EXPCORE is expCore: x (<= 0 or NaN) in, scale = 2^k and p = expm1(r) out;
// x ends holding r. Below expMin, x is set to expMin and scale to +0.
#define CLAMP(in, x, sc, p, t, fl, out)	VCMPPD.BCST $0x11, XMIN, x, fl; VBLENDMPD.BCST XMIN, x, fl, x
#define ROUNDK(in, x, sc, p, t, fl, out)	VMULPD.BCST LOG2E, x, sc; VADDPD.BCST SHIFT, sc, sc; VSUBPD.BCST SHIFT, sc, p
#define REDUCE(in, x, sc, p, t, fl, out)	VMULPD.BCST LN2HI, p, t; VSUBPD t, x, x; VMULPD.BCST LN2LO, p, p; VSUBPD p, x, x
#define POW2K(in, x, sc, p, t, fl, out)	VPADDQ.BCST BIAS, sc, sc; VPSLLQ $52, sc, sc; VPXORQ sc, sc, fl, sc
#define POLY(in, x, sc, p, t, fl, out)	VMULPD.BCST C13, x, p; VADDPD.BCST C12, p, p
#define HORNER(c, in, x, sc, p, t, fl, out)	VMULPD x, p, p; VADDPD.BCST c, p, p
#define EXPM1R(in, x, sc, p, t, fl, out)	VMULPD x, x, t; VMULPD t, p, p; VADDPD x, p, p
#define EXPCORE(ON, ONC) \
	ON(CLAMP); ON(ROUNDK); ON(REDUCE); ON(POW2K); ON(POLY); \
	ONC(HORNER, C11); ONC(HORNER, C10); ONC(HORNER, C9); ONC(HORNER, C8); ONC(HORNER, C7); \
	ONC(HORNER, C6); ONC(HORNER, C5); ONC(HORNER, C4); ONC(HORNER, C3); ONC(HORNER, C2); \
	ON(EXPM1R)

#define NEGABS(in, x, sc, p, t, fl, out)	VPORQ.BCST SIGN, in, x
#define DOUBLE(in, x, sc, p, t, fl, out)	VADDPD x, x, x

// SIGMOID: e = scale + scale*p, out = num/(1+e) with num = e where the
// input's sign bit is set, 1 elsewhere.
#define SIGOUT(in, x, sc, p, t, fl, out) \
	VMULPD p, sc, p; VADDPD sc, p, p; VADDPD Z31, p, t; VPTESTMQ.BCST SIGN, in, fl; VBLENDMPD p, Z31, fl, out; VDIVPD t, out, out
#define SIGMOID(ON, ONC)	ON(NEGABS); EXPCORE(ON, ONC); ON(SIGOUT)

// TANH: em = (scale - 1) + scale*p, out = em/(2+em) with its sign bit
// replaced by the input's.
#define TANHOUT(in, x, sc, p, t, fl, out) \
	VMULPD p, sc, p; VSUBPD Z31, sc, sc; VADDPD p, sc, p; VADDPD.BCST TWO, p, t; VDIVPD t, p, out; \
	VPANDQ.BCST ABS, out, out; VPANDQ.BCST SIGN, in, in; VPORQ in, out, out
#define TANH(ON, ONC)	ON(NEGABS); ON(DOUBLE); EXPCORE(ON, ONC); ON(TANHOUT)

// ACTIVATE runs fn over n elements of src into dst.
#define ACTIVATE(fn) \
	MOVQ dst+0(FP), DI; \
	MOVQ src+8(FP), SI; \
	MOVQ n+16(FP), CX; \
	VBROADCASTSD ONE, Z31; \
	PCALIGN $64; \
quads: \
	CMPQ CX, $32; \
	JLT two; \
	VMOVUPD (SI), Z0; \
	VMOVUPD 64(SI), Z6; \
	VMOVUPD 128(SI), Z12; \
	VMOVUPD 192(SI), Z18; \
	fn(ON4, ONC4); \
	VMOVUPD Z5, (DI); \
	VMOVUPD Z11, 64(DI); \
	VMOVUPD Z17, 128(DI); \
	VMOVUPD Z23, 192(DI); \
	ADDQ $256, SI; \
	ADDQ $256, DI; \
	SUBQ $32, CX; \
	JMP quads; \
two: \
	CMPQ CX, $16; \
	JLT one; \
	VMOVUPD (SI), Z0; \
	VMOVUPD 64(SI), Z6; \
	fn(ON2, ONC2); \
	VMOVUPD Z5, (DI); \
	VMOVUPD Z11, 64(DI); \
	ADDQ $128, SI; \
	ADDQ $128, DI; \
	SUBQ $16, CX; \
one: \
	CMPQ CX, $8; \
	JLT tail; \
	VMOVUPD (SI), Z0; \
	fn(ON1, ONC1); \
	VMOVUPD Z5, (DI); \
	ADDQ $64, SI; \
	ADDQ $64, DI; \
	SUBQ $8, CX; \
tail: \
	TESTQ CX, CX; \
	JZ done; \
	MOVL $1, DX; \
	SHLL CX, DX; \
	DECL DX; \
	KMOVW DX, K1; \
	VMOVUPD.Z (SI), K1, Z0; \
	fn(ON1, ONC1); \
	VMOVUPD Z5, K1, (DI); \
done: \
	VZEROUPPER; \
	RET

// func sigmoidAVX512(dst, src *float64, n int)
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-24
	ACTIVATE(SIGMOID)

// func tanhAVX512(dst, src *float64, n int)
TEXT ·tanhAVX512(SB), NOSPLIT, $0-24
	ACTIVATE(TANH)
