#include "textflag.h"

// The AVX2 form of the block and element-wise twins (elementwise.go): a
// lane is an element, and each lane does the twin's operations in the
// twin's order, one rounding each (never FMA), so every output has the
// twin's bits.
//
// The element-wise kernels run LANES (lanes_amd64.h). The block kernels
// run each row the same way, the row's tail under a mask built once, then
// step both cursors by their row strides. Every loop starts on a 64-byte
// boundary (PCALIGN). Constants other than lanes_amd64.h's arrive as
// arguments.

#define TMASK	Y7
#define TMASKX	X7
#include "lanes_amd64.h"

// BLOCK runs body over a block of rows: DI and SI are the dst and src
// cursors, R8 and R9 their row strides in bytes, R10 the rows and R11 the
// columns (neither 0). Each row is full vectors at byte offset AX, then its
// last cols%4 under TMASK.
#define BLOCK(body) \
	MOVQ dst+0(FP), DI; \
	MOVQ ds+8(FP), R8; \
	SHLQ $3, R8; \
	MOVQ src+16(FP), SI; \
	MOVQ ss+24(FP), R9; \
	SHLQ $3, R9; \
	MOVQ rows+32(FP), R10; \
	MOVQ cols+40(FP), R11; \
	MOVQ R11, CX; \
	ANDQ $3, CX; \
	SHRQ $2, R11; \
	TAILMASK(CX); \
	PCALIGN $64; \
row: \
	XORQ AX, AX; \
	MOVQ R11, DX; \
	TESTQ DX, DX; \
	JZ rowtail; \
vec: \
	body(LOADV, STOREV); \
	ADDQ $32, AX; \
	DECQ DX; \
	JNZ vec; \
rowtail: \
	TESTQ CX, CX; \
	JZ next; \
	body(LOADM, STOREM); \
next: \
	ADDQ R8, DI; \
	ADDQ R9, SI; \
	DECQ R10; \
	JNZ row; \
	VZEROUPPER; \
	RET

#define COPY(LD, ST)	LD((SI)(AX*1), Y0); ST(Y0, (DI)(AX*1))
#define ADDTO(LD, ST)	LD((DI)(AX*1), Y0); LD((SI)(AX*1), Y1); VADDPD Y1, Y0, Y0; ST(Y0, (DI)(AX*1))

// func copyBlockAVX2(dst *float64, ds int, src *float64, ss int, rows, cols int)
TEXT ·copyBlockAVX2(SB), NOSPLIT, $0-48
	BLOCK(COPY)

// func addBlockAVX2(dst *float64, ds int, src *float64, ss int, rows, cols int)
//
// cols is a multiple of 4: addBlock runs each row's last cols%4 columns in
// Go, so this form's masked tail never runs.
TEXT ·addBlockAVX2(SB), NOSPLIT, $0-48
	BLOCK(ADDTO)

#define MUL(LD, ST)	LD((SI)(AX*1), Y0); LD((DX)(AX*1), Y1); VMULPD Y1, Y0, Y0; ST(Y0, (DI)(AX*1))

// func mulElemsAVX2(dst, a, b *float64, n int)
TEXT ·mulElemsAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	LANES(MUL)

// KEEP: sel > 0 (ordered, so a NaN is not) as a lane mask, ANDed with src.
#define KEEP(LD, ST) \
	LD((DX)(AX*1), Y1); \
	VCMPPD $0x1e, Y15, Y1, Y1; \
	LD((SI)(AX*1), Y0); \
	VANDPD Y0, Y1, Y0; \
	ST(Y0, (DI)(AX*1))

// func keepPositiveAVX2(dst, src, sel *float64, n int)
TEXT ·keepPositiveAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ sel+16(FP), DX
	MOVQ n+24(FP), CX
	VXORPD Y15, Y15, Y15
	LANES(KEEP)

// DROP: kept = draw < keep as a lane mask; mask = scale AND kept, out =
// src·scale AND kept.
//
//	DI  mask    R8  out    SI  src    Y13  keep    Y12  scale
#define DROP(LD, ST) \
	LD((DI)(AX*1), Y0); \
	VCMPPD $0x11, Y13, Y0, Y0; \
	VANDPD Y12, Y0, Y1; \
	ST(Y1, (DI)(AX*1)); \
	LD((SI)(AX*1), Y2); \
	VMULPD Y12, Y2, Y2; \
	VANDPD Y2, Y0, Y2; \
	ST(Y2, (R8)(AX*1))

// func dropoutApplyAVX2(mask, out, src *float64, n int, keep, scale float64)
TEXT ·dropoutApplyAVX2(SB), NOSPLIT, $0-48
	MOVQ mask+0(FP), DI
	MOVQ out+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ n+24(FP), CX
	VBROADCASTSD keep+32(FP), Y13
	VBROADCASTSD scale+40(FP), Y12
	LANES(DROP)

// ADAM is adamUpdateGeneric, the twin's operations in its order.
//
//	DI  w    SI  grad    DX  m    R8  v
//	Y8  Beta1    Y9  1-Beta1    Y10  Beta2    Y11  1-Beta2
//	Y12 LR       Y13 C1         Y14  C2       Y15  Eps
#define ADAM(LD, ST) \
	LD((SI)(AX*1), Y0); \
	LD((DX)(AX*1), Y1); \
	VMULPD Y1, Y8, Y1; \
	VMULPD Y0, Y9, Y2; \
	VADDPD Y2, Y1, Y1; \
	ST(Y1, (DX)(AX*1)); \
	LD((R8)(AX*1), Y3); \
	VMULPD Y3, Y10, Y3; \
	VMULPD Y0, Y11, Y4; \
	VMULPD Y0, Y4, Y4; \
	VADDPD Y4, Y3, Y3; \
	ST(Y3, (R8)(AX*1)); \
	VDIVPD Y13, Y1, Y1; \
	VMULPD Y1, Y12, Y1; \
	VDIVPD Y14, Y3, Y3; \
	VSQRTPD Y3, Y3; \
	VADDPD Y15, Y3, Y3; \
	VDIVPD Y3, Y1, Y1; \
	LD((DI)(AX*1), Y5); \
	VSUBPD Y1, Y5, Y5; \
	ST(Y5, (DI)(AX*1))

// func adamUpdateAVX2(w, grad, m, v *float64, n int, k *AdamCoeffs)
TEXT ·adamUpdateAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), DX
	MOVQ v+24(FP), R8
	MOVQ n+32(FP), CX
	MOVQ k+40(FP), BX
	VBROADCASTSD 0(BX), Y8
	VBROADCASTSD 8(BX), Y9
	VBROADCASTSD 16(BX), Y10
	VBROADCASTSD 24(BX), Y11
	VBROADCASTSD 32(BX), Y12
	VBROADCASTSD 40(BX), Y13
	VBROADCASTSD 48(BX), Y14
	VBROADCASTSD 56(BX), Y15
	LANES(ADAM)
