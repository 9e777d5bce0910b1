package matrix

import (
	"fmt"
	"math"
)

// Block and element-wise kernels.
//
// These are the rest of a fold fit outside the products and the
// activations: Conv1D's im2col and col2im (CopyBlock, AddBlock), ReLU
// (KeepPositive), Dropout (DropoutApply forward, MulElems backward) and the
// Adam update (AdamUpdate). They are the package's fourth primitive, under Sigmoid's rule: on amd64 with
// AVX2 an assembly kernel does four elements per instruction
// (elementwise_amd64.s; the AVX-512 level runs it too); elsewhere, and
// whenever a test sets the portable level, the portable twin below does
// one. A lane is an element and does the twin's IEEE operations
// in the twin's order, each rounded once (never FMA; every product is
// written float64(a*b)), so every path gives the twin's bits for every
// input, NaNs aside (which of two NaNs an operation returns is the CPU's
// operand-order rule).

// CopyBlock sets dst[r·ds + j] = src[r·ss + j] for every row r < rows and
// column j < cols: a block of rows copied between two row strides. dst and
// src must not overlap.
func CopyBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	if !blockShape("CopyBlock", len(dst), ds, len(src), ss, rows, cols) {
		return
	}
	if ds == cols && ss == cols {
		rows, cols = 1, rows*cols
	}
	copyBlock(dst, ds, src, ss, rows, cols)
}

// AddBlock sets dst[r·ds + j] += src[r·ss + j] for every row r < rows and
// column j < cols, each add rounded once with dst's value the left operand.
// dst and src must not overlap, and no two rows of dst may share an
// element.
func AddBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	if !blockShape("AddBlock", len(dst), ds, len(src), ss, rows, cols) {
		return
	}
	if ds == cols && ss == cols {
		rows, cols = 1, rows*cols
	}
	addBlock(dst, ds, src, ss, rows, cols)
}

// blockShape panics on a negative shape or a slice too short for it, and
// reports whether the block holds any element.
func blockShape(op string, nd, ds, ns, ss, rows, cols int) bool {
	if rows < 0 || cols < 0 || ds < 0 || ss < 0 {
		panic(fmt.Sprintf("matrix: %s over %d x %d with strides %d, %d", op, rows, cols, ds, ss))
	}
	if rows == 0 || cols == 0 {
		return false
	}
	checkLen(op, (rows-1)*ds+cols, nd)
	checkLen(op, (rows-1)*ss+cols, ns)
	return true
}

// MulElems sets dst[i] = a[i]·b[i] for every i < len(dst). a and b must be
// at least as long as dst, and dst may be either of them.
func MulElems(dst, a, b []float64) {
	n := len(dst)
	checkLen("MulElems", n, len(a), len(b))
	mulElems(dst, a[:n], b[:n])
}

// KeepPositive sets dst[i] = src[i] where sel[i] > 0 and +0 elsewhere (sel
// a NaN included), for every i < len(dst): ReLU's forward pass with sel =
// src, and its backward pass with sel the forward's output, which is > 0
// exactly where the forward's input was. src and sel must be at least as
// long as dst, and dst may be either of them.
func KeepPositive(dst, src, sel []float64) {
	n := len(dst)
	checkLen("KeepPositive", n, len(src), len(sel))
	keepPositive(dst, src[:n], sel[:n])
}

// DropoutApply is inverted dropout's forward pass over len(out) elements.
// On entry mask holds one uniform draw per element; an element is kept
// where its draw is < keep. The kernel replaces each draw with the
// element's mask — scale where kept, +0 where dropped — and sets
// out[i] = src[i]·scale where kept, +0 where dropped. The backward pass is
// MulElems(dx, grad, mask). mask and src must be at least as long as out;
// out may be src.
func DropoutApply(mask, out, src []float64, keep, scale float64) {
	n := len(out)
	checkLen("DropoutApply", n, len(mask), len(src))
	dropoutApply(mask[:n], out, src[:n], keep, scale)
}

// AdamCoeffs are one Adam step's scalars: the decay rates and their
// complements (Beta1, 1−Beta1, Beta2, 1−Beta2), the learning rate, the
// step's bias corrections C1 = 1−Beta1^t and C2 = 1−Beta2^t, and Eps. The
// assembly kernels read them in this order.
type AdamCoeffs struct {
	Beta1, OneMinusBeta1, Beta2, OneMinusBeta2, LR, C1, C2, Eps float64
}

// AdamUpdate runs one Adam step over a parameter's elements: for every
// i < len(w), with g the gradient and m, v the moment estimates,
//
//	m[i] = Beta1·m[i] + (1−Beta1)·g[i]
//	v[i] = Beta2·v[i] + ((1−Beta2)·g[i])·g[i]
//	w[i] = w[i] − (LR·(m[i]/C1)) / (sqrt(v[i]/C2) + Eps)
//
// each operation rounded once, in that order. g, m and v must be at least
// as long as w and must not overlap it or each other.
func AdamUpdate(w, g, m, v []float64, k *AdamCoeffs) {
	n := len(w)
	checkLen("AdamUpdate", n, len(g), len(m), len(v))
	adamUpdate(w, g[:n], m[:n], v[:n], k)
}

// copyBlockGeneric is CopyBlock's portable twin; the block is not empty.
func copyBlockGeneric(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	for r := 0; r < rows; r++ {
		copy(dst[r*ds:r*ds+cols], src[r*ss:r*ss+cols])
	}
}

// addBlockGeneric is AddBlock's portable twin; the block is not empty.
func addBlockGeneric(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	for r := 0; r < rows; r++ {
		d := dst[r*ds : r*ds+cols]
		for j, s := range src[r*ss : r*ss+cols] {
			d[j] += s
		}
	}
}

// mulElemsGeneric is MulElems's portable twin; every slice is len(dst).
func mulElemsGeneric(dst, a, b []float64) {
	a, b = a[:len(dst)], b[:len(dst)]
	for i := range dst {
		dst[i] = a[i] * b[i]
	}
}

// keepPositiveGeneric is KeepPositive's portable twin; every slice is
// len(dst). It selects with a bit mask rather than a branch on each
// element's sign, which the branch predictor cannot learn.
func keepPositiveGeneric(dst, src, sel []float64) {
	src, sel = src[:len(dst)], sel[:len(dst)]
	for i := range dst {
		dst[i] = keepIf(src[i], sel[i] > 0)
	}
}

// dropoutApplyGeneric is DropoutApply's portable twin; every slice is
// len(out).
func dropoutApplyGeneric(mask, out, src []float64, keep, scale float64) {
	mask, src = mask[:len(out)], src[:len(out)]
	for i := range out {
		kept := mask[i] < keep
		mask[i] = keepIf(scale, kept)
		out[i] = keepIf(src[i]*scale, kept)
	}
}

// adamUpdateGeneric is AdamUpdate's portable twin; every slice is len(w).
func adamUpdateGeneric(w, g, m, v []float64, k *AdamCoeffs) {
	g, m, v = g[:len(w)], m[:len(w)], v[:len(w)]
	for i := range w {
		gi := g[i]
		mi := float64(k.Beta1*m[i]) + float64(k.OneMinusBeta1*gi)
		vi := float64(k.Beta2*v[i]) + float64(float64(k.OneMinusBeta2*gi)*gi)
		m[i], v[i] = mi, vi
		w[i] -= float64(k.LR*(mi/k.C1)) / (math.Sqrt(vi/k.C2) + k.Eps)
	}
}

// keepIf is v when keep is set and +0 when not: v's bits ANDed with all
// ones or with none, so no branch depends on keep.
func keepIf(v float64, keep bool) float64 {
	return math.Float64frombits(math.Float64bits(v) & -b2u(keep))
}

// b2u is 1 for true and 0 for false; the compiler reads the bool's byte
// instead of branching on it.
func b2u(b bool) uint64 {
	var u uint64
	if b {
		u = 1
	}
	return u
}
