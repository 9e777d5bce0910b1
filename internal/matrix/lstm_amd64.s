#include "textflag.h"

// lstmCellAVX2, lstmGateGradsAVX2 and lstmGatherAVX2 are the AVX2 form of
// the LSTM twins (lstm.go): a lane is an element (lanes_amd64.h), and each
// lane does the twin's operations in the twin's order, one rounding each
// (never FMA), so every output has the twin's bits.
//
// The streams of one element index share a byte offset, AX, so a pass
// advances one register however many streams it reads. Each kernel's loop
// (the row loop, for the gate gradients and the gather) starts on a 64-byte
// boundary (PCALIGN, as in mulrows_amd64.s). Constants are rows of expTab
// (activations.go): 1.0 four times, and lanes_amd64.h's lane numbers.

#define ONE	·expTab+256(SB)
#define TMASK	Y14
#define TMASKX	X14
#include "lanes_amd64.h"

//	DI  c    R8  tc    SI  cPrev    R9  ig    R10  fg    R11  cg
#define CELL(LD, ST) \
	LD((R10)(AX*1), Y0); \
	LD((SI)(AX*1), Y1); \
	VMULPD Y1, Y0, Y0; \
	LD((R9)(AX*1), Y2); \
	LD((R11)(AX*1), Y3); \
	VMULPD Y3, Y2, Y2; \
	VADDPD Y2, Y0, Y0; \
	ST(Y0, (DI)(AX*1)); \
	ST(Y0, (R8)(AX*1))

// func lstmCellAVX2(c, tc, cPrev, ig, fg, cg *float64, n int)
TEXT ·lstmCellAVX2(SB), NOSPLIT, $0-56
	MOVQ c+0(FP), DI
	MOVQ tc+8(FP), R8
	MOVQ cPrev+16(FP), SI
	MOVQ ig+24(FP), R9
	MOVQ fg+32(FP), R10
	MOVQ cg+40(FP), R11
	MOVQ n+48(FP), CX
	LANES(CELL)

// GRADS is lstmGateGradsGeneric's loop body for four elements:
//
//	SI, BX, DX, R8  the i, f, g, o gate blocks    R9  tc     R10  cPrev
//	R11  dh         R12  dc                       AX  element offset (bytes)
//	DI   dg at this row's i gradients, at the current column
//	R14  dg at this row's g gradients, at the current column
//	R13  hidden x 8: from a row's i (g) gradients to its f (o) ones
//	Y15  1.0
//
// Y0-Y7 hold i, f, g, o, tc, cPrev, dh and dct; Y8-Y12 the four gradients.
#define GRADS(LD, ST) \
	LD((SI)(AX*1), Y0); \
	LD((BX)(AX*1), Y1); \
	LD((DX)(AX*1), Y2); \
	LD((R8)(AX*1), Y3); \
	LD((R9)(AX*1), Y4); \
	LD((R10)(AX*1), Y5); \
	LD((R11)(AX*1), Y6); \
	LD((R12)(AX*1), Y7); \
	VMULPD Y4, Y4, Y8; \
	VSUBPD Y8, Y15, Y8; \
	VMULPD Y3, Y6, Y9; \
	VMULPD Y8, Y9, Y9; \
	VADDPD Y9, Y7, Y7; \
	VMULPD Y2, Y7, Y8; \
	VMULPD Y0, Y8, Y8; \
	VSUBPD Y0, Y15, Y9; \
	VMULPD Y9, Y8, Y8; \
	ST(Y8, (DI)); \
	VMULPD Y5, Y7, Y9; \
	VMULPD Y1, Y9, Y9; \
	VSUBPD Y1, Y15, Y10; \
	VMULPD Y10, Y9, Y9; \
	ST(Y9, (DI)(R13*1)); \
	VMULPD Y0, Y7, Y10; \
	VMULPD Y2, Y2, Y11; \
	VSUBPD Y11, Y15, Y11; \
	VMULPD Y11, Y10, Y10; \
	ST(Y10, (R14)); \
	VMULPD Y4, Y6, Y11; \
	VMULPD Y3, Y11, Y11; \
	VSUBPD Y3, Y15, Y12; \
	VMULPD Y12, Y11, Y11; \
	ST(Y11, (R14)(R13*1)); \
	VMULPD Y1, Y7, Y7; \
	ST(Y7, (R12)(AX*1))

// func lstmGateGradsAVX2(dg, gates, tc, cPrev, dh, dc *float64, rows, hidden int)
//
// rows and hidden are positive. A row's hidden elements are full vectors
// and then a masked tail of hidden mod 4, the same mask every row.
TEXT ·lstmGateGradsAVX2(SB), NOSPLIT, $8-64
	MOVQ rows+48(FP), CX
	MOVQ CX, left-8(SP)
	MOVQ hidden+56(FP), R13
	IMULQ R13, CX
	SHLQ $3, CX
	MOVQ gates+8(FP), SI
	LEAQ (SI)(CX*1), BX
	LEAQ (BX)(CX*1), DX
	LEAQ (DX)(CX*1), R8
	MOVQ tc+16(FP), R9
	MOVQ cPrev+24(FP), R10
	MOVQ dh+32(FP), R11
	MOVQ dc+40(FP), R12
	MOVQ dg+0(FP), DI
	SHLQ $3, R13
	LEAQ (DI)(R13*2), R14
	VMOVUPD ONE, Y15
	MOVQ hidden+56(FP), CX
	ANDQ $3, CX
	TAILMASK(CX)
	XORQ AX, AX
	PCALIGN $64
gradsrow:
	MOVQ hidden+56(FP), CX
	SUBQ $4, CX
	JLT gradstail
gradsvec:
	GRADS(LOADV, STOREV)
	ADDQ $32, AX
	ADDQ $32, DI
	ADDQ $32, R14
	SUBQ $4, CX
	JGE gradsvec
gradstail:
	ADDQ $4, CX
	JZ gradsnext
	GRADS(LOADM, STOREM)
	LEAQ (AX)(CX*8), AX
	LEAQ (DI)(CX*8), DI
	LEAQ (R14)(CX*8), R14
gradsnext:
	// DI and R14 are one gate block past where the row started; the next
	// row starts three blocks further on.
	LEAQ (DI)(R13*2), DI
	ADDQ R13, DI
	LEAQ (R14)(R13*2), R14
	ADDQ R13, R14
	DECQ left-8(SP)
	JNZ gradsrow
	VZEROUPPER
	RET

// func lstmGatherAVX2(pre, xw *float64, xs int, hw *float64, hs int, b *float64, rows, hidden int)
//
// rows and hidden are positive. Gate-major output is one sequential stream:
// gate by gate, sample by sample, unit by unit, so DI only moves forward.
//
//	DI  pre cursor              SI, R8  this row of xw, hw at gate q
//	R12, R13  xw, hw at gate q, sample 0    R9  b at gate q
//	R10, R11  xw, hw row strides (bytes)    R14  hidden x 8
//	AX  column offset (bytes)    CX  columns left    DX  rows left    BX  gates left
TEXT ·lstmGatherAVX2(SB), NOSPLIT, $0-64
	MOVQ pre+0(FP), DI
	MOVQ xw+8(FP), R12
	MOVQ xs+16(FP), R10
	SHLQ $3, R10
	MOVQ hw+24(FP), R13
	MOVQ hs+32(FP), R11
	SHLQ $3, R11
	MOVQ b+40(FP), R9
	MOVQ hidden+56(FP), R14
	MOVQ R14, CX
	SHLQ $3, R14
	ANDQ $3, CX
	TAILMASK(CX)
	MOVQ $4, BX
gathergate:
	MOVQ R12, SI
	MOVQ R13, R8
	MOVQ rows+48(FP), DX
	PCALIGN $64
gatherrow:
	XORQ AX, AX
	MOVQ hidden+56(FP), CX
	SUBQ $4, CX
	JLT gathertail
gathervec:
	VMOVUPD (SI)(AX*1), Y0
	VADDPD (R8)(AX*1), Y0, Y0
	VADDPD (R9)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	SUBQ $4, CX
	JGE gathervec
gathertail:
	ADDQ $4, CX
	JZ gathernext
	LOADM((SI)(AX*1), Y0)
	LOADM((R8)(AX*1), Y1)
	VADDPD Y1, Y0, Y0
	LOADM((R9)(AX*1), Y1)
	VADDPD Y1, Y0, Y0
	STOREM(Y0, (DI)(AX*1))
gathernext:
	ADDQ R14, DI
	ADDQ R10, SI
	ADDQ R11, R8
	DECQ DX
	JNZ gatherrow
	ADDQ R14, R12
	ADDQ R14, R13
	ADDQ R14, R9
	DECQ BX
	JNZ gathergate
	VZEROUPPER
	RET
