// The lane-per-element AVX2 kernels' shared pieces (lstm_amd64.s,
// elementwise_amd64.s). A lane is an element: full vectors first, then the
// last 1-3 elements through a masked load and store (the masked-out lanes
// compute on +0 and are never written). The including file defines TMASK,
// the Y register that holds the tail's mask, and TMASKX, its X half.

// LANE: the lane numbers of expTab (activations.go), which build the mask.
#define LANE	·expTab+320(SB)

// TAILMASK sets TMASK's lanes below count (0-3) and clears the rest.
#define TAILMASK(count)	VMOVQ count, TMASKX; VPBROADCASTQ TMASKX, TMASK; VPCMPGTQ LANE, TMASK, TMASK

// Loads and stores of one vector, full or under TMASK.
#define LOADV(src, dst)	VMOVUPD src, dst
#define STOREV(src, dst)	VMOVUPD src, dst
#define LOADM(src, dst)	VMASKMOVPD src, TMASK, dst
#define STOREM(src, dst)	VMASKMOVPD src, TMASK, dst

// LANES runs body over CX elements, the streams of one element at the
// shared byte offset AX: full vectors, then the tail under TMASK. Its loop
// starts on a 64-byte boundary (PCALIGN), and it returns.
#define LANES(body) \
	XORQ AX, AX; \
	SUBQ $4, CX; \
	JLT tail; \
	PCALIGN $64; \
vec: \
	body(LOADV, STOREV); \
	ADDQ $32, AX; \
	SUBQ $4, CX; \
	JGE vec; \
tail: \
	ADDQ $4, CX; \
	JZ done; \
	TAILMASK(CX); \
	body(LOADM, STOREM); \
done: \
	VZEROUPPER; \
	RET
