package matrix

import (
	"fmt"
	"math"
	"sync"
)

// Matmul kernels.
//
// One contract for both element widths, on either code path: every output
// cell is the sum of its a*b terms added one at a time in ascending k, each
// multiply and each add rounded once — bit for bit what the naive triple
// loop (naiveMulInto) produces. Nothing is re-associated: no FMA (it would
// skip the product's rounding), no k-direction vectorisation, no partial
// sums. The determinism tests (kernels_test.go) and the search-level
// equivalence suites rest on this.
//
// All matmul forms are thin drivers over one primitive, mulRows: for each
// row i, c[i][0:n] += Σ_k a[i*ars+k*aks] * b[k][0:n]. On amd64 it is an
// assembly micro-kernel vectorised across the output columns j, so a SIMD
// lane is a cell and keeps the cell's scalar order: four float64 lanes with
// AVX2 (mulrows_amd64.s), eight with AVX-512 (mulrows_avx512_amd64.s;
// float32 stays on the AVX2 kernel), whichever kernelLevel names (level.go);
// elsewhere it is mulRowsGeneric below. Every form runs on the calling
// goroutine; the search's workers are the only parallelism above it.
//
// Skipping the terms of +-0 a elements (skipZero: ReLU and dropout outputs
// and their gradients are full of them) costs the assembly no branch on an
// element. Adding such a term instead of skipping it is already exact in
// almost every call: the term is +-0 when its b element is finite, and
// acc + +-0 is acc bit for bit unless acc is -0, which a sum in
// round-to-nearest is only when both addends are, so only a cell that
// starts at -0 stays one. Each call therefore runs every pass through a
// body that adds every term, unless skipZero is on, a holds a +-0, b holds
// an Inf or a NaN, or (without zeroC) the pass's block of c holds a -0.
// That is decided per call from vector scans of a (when it is one run of
// m*k elements) and b, and per pass from one of the pass's block of c.
// Where it fails, the pass runs a masked body: each row and kk, a lane mask
// of "a element is not +-0" gates the add (an AVX-512 opmask, an AVX2
// blend), and a masked-off lane keeps its accumulator, which is exactly a
// skipped term.

// mulRowsGeneric is the portable form of the package's inner primitive:
//
//	for i in [0, m):  c[i*n + j] += Σ_kk a[i*ars + kk*aks] * b[kk*n + j],  j in [0, n)
//
// with kk ascending for every cell. skipZero drops the terms whose a element
// is +-0 (which differs from adding them when b holds Inf or NaN, or c holds
// -0). zeroC starts every cell at +0 instead of at c's contents: the product
// forms that overwrite c use it, so c need not be cleared first. The inner
// statement is naiveMulInto's. Its product is written T(av*bv), so that no
// compiler fuses it into the add (arm64 would): each term is rounded once
// before it is added, as the assembly kernels round it.
func mulRowsGeneric[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		if zeroC {
			clear(crow)
		}
		for kk := 0; kk < k; kk++ {
			av := a[i*ars+kk*aks]
			if skipZero && av == 0 {
				continue
			}
			for j, bv := range b[kk*n : (kk+1)*n] {
				crow[j] += T(av * bv)
			}
		}
	}
}

// mulAccum adds the m x n product described by mulRows's formula into c;
// with zeroC it sets c to the product instead (every cell starts at +0).
func mulAccum[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		if zeroC {
			clear(c[:m*n])
		}
		return
	}
	mulRows(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
}

// MulInto computes dst = a*b, reusing dst's backing array when it has
// capacity (dst may be nil or any shape) and returning the result matrix.
// Terms whose a element is zero are skipped, as in naiveMulInto.
func MulInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.cols != b.rows {
		return nil, shapeErr("mul", a, b)
	}
	dst = RecycleNoClear(dst, a.rows, b.cols)
	mulAccum(dst.data, a.data, a.cols, 1, b.data, a.rows, a.cols, b.cols, true, true)
	return dst, nil
}

// naiveMulInto is the reference kernel: the plain triple loop on one
// goroutine. It is the bit-exactness oracle in tests and the baseline the
// kernel benchmarks compare the micro-kernel against.
func naiveMulInto[T Float](dst, a, b *Mat[T]) *Mat[T] {
	dst = Recycle(dst, a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				orow[j] += T(av * bv)
			}
		}
	}
	return dst
}

// TInto writes m's transpose into dst (reused when capacity allows). It
// takes four rows of m at a time, so each row of dst gets four adjacent
// elements per visit and the reads are four sequential streams.
func TInto[T Float](dst, m *Mat[T]) *Mat[T] {
	dst = RecycleNoClear(dst, m.cols, m.rows)
	r, c := m.rows, m.cols
	i := 0
	for ; i+4 <= r; i += 4 {
		r0 := m.data[i*c : (i+1)*c]
		r1 := m.data[(i+1)*c : (i+2)*c][:len(r0)]
		r2 := m.data[(i+2)*c : (i+3)*c][:len(r0)]
		r3 := m.data[(i+3)*c : (i+4)*c][:len(r0)]
		for j := range r0 {
			q := dst.data[j*r+i:][:4]
			q[0], q[1], q[2], q[3] = r0[j], r1[j], r2[j], r3[j]
		}
	}
	for ; i < r; i++ {
		for j, v := range m.data[i*c : (i+1)*c] {
			dst.data[j*r+i] = v
		}
	}
	return dst
}

// MulTransposeAAccum computes dst += aᵀ*b (dst must already be p x q).
// Gradient accumulation uses this to fold the += into the matmul.
func MulTransposeAAccum[T Float](dst, a, b *Mat[T]) error {
	if a.rows != b.rows {
		return shapeErr("mulTa", a, b)
	}
	if dst.rows != a.cols || dst.cols != b.cols {
		return shapeErr("mulTa dst", dst, b)
	}
	mulAccum(dst.data, a.data, 1, a.cols, b.data, a.cols, a.rows, b.cols, true, false)
	return nil
}

// packPool64 and packPool32 recycle the bᵀ scratch of MulTransposeBInto.
var packPool64, packPool32 sync.Pool

// MulTransposeBInto computes dst = a*bᵀ. a is m x k, b is n x k, dst is
// m x n: dst[i][j] = dot(a.Row(i), b.Row(j)), an ascending-index dot with no
// term skipped. bᵀ is packed once per call into pooled scratch (k*n copies
// against m*k*n multiply-adds) so the product runs as MulInto does.
func MulTransposeBInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.cols != b.cols {
		return nil, shapeErr("mulTb", a, b)
	}
	pool := &packPool64
	if _, ok := any(b).(*Mat[float32]); ok {
		pool = &packPool32
	}
	bt, _ := pool.Get().(*Mat[T])
	bt = TInto(bt, b)
	dst, _ = MulNoSkipInto(dst, a, bt)
	pool.Put(bt)
	return dst, nil
}

// MulNoSkipInto computes dst = a*b as MulInto does, except that no term is
// skipped, zero a elements included: MulTransposeBInto's product, for a
// caller that packs bᵀ once with TInto and multiplies by it many times.
func MulNoSkipInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.cols != b.rows {
		return nil, shapeErr("mulNoSkip", a, b)
	}
	dst = RecycleNoClear(dst, a.rows, b.cols)
	mulAccum(dst.data, a.data, a.cols, 1, b.data, a.rows, a.cols, b.cols, false, true)
	return dst, nil
}

// AccumColSums adds m's column sums into dst: dst[j] += m[0][j], then
// m[1][j], and so on down the rows, each add rounded once — bit for bit the
// plain loop, run through the row kernel as dst += 1·m (1·x is x exactly),
// so that the columns go a vector at a time. len(dst) must be m's column
// count.
func AccumColSums[T Float](dst []T, m *Mat[T]) error {
	if len(dst) != m.cols {
		return shapeErrVec("colsums", m, len(dst))
	}
	mulAccum(dst, one[T](), 0, 0, m.data, 1, m.rows, m.cols, false, false)
	return nil
}

// AddRowVec adds v to every row of m: m[i][j] += v[j], each add rounded
// once — the plain loop's bits, through the row kernel as m += 1·v. len(v)
// must be m's column count.
func AddRowVec[T Float](m *Mat[T], v []T) error {
	if len(v) != m.cols {
		return shapeErrVec("addrow", m, len(v))
	}
	mulAccum(m.data, one[T](), 0, 0, v, m.rows, 1, m.cols, false, false)
	return nil
}

// one64 and one32 are the a operand of AccumColSums and AddRowVec: a single
// 1, read at every row and every k (both strides 0).
var (
	one64 = []float64{1}
	one32 = []float32{1}
)

func one[T Float]() []T {
	if o, ok := any(one64).([]T); ok {
		return o
	}
	return any(one32).([]T)
}

// Recycle returns a zeroed rows x cols matrix, reusing m's backing array
// when it has capacity. m may be nil or any shape; the returned matrix may
// alias m's storage, so callers must treat m as invalidated.
func Recycle[T Float](m *Mat[T], rows, cols int) *Mat[T] {
	m = RecycleNoClear(m, rows, cols)
	clear(m.data)
	return m
}

// RecycleNoClear is Recycle without zeroing; every element will be
// overwritten by the caller.
func RecycleNoClear[T Float](m *Mat[T], rows, cols int) *Mat[T] {
	n := rows * cols
	if m != nil && cap(m.data) >= n {
		m.data = m.data[:n]
		m.rows, m.cols = rows, cols
		return m
	}
	return NewOf[T](rows, cols)
}

// RecycleVec returns a length-n slice reusing v's capacity when possible,
// without zeroing.
func RecycleVec[T Float](v []T, n int) []T {
	if cap(v) >= n {
		return v[:n]
	}
	return make([]T, n)
}

// SelectRowsInto copies rows idx of m into dst, reusing dst's backing.
func SelectRowsInto[T Float](dst, m *Mat[T], idx []int) *Mat[T] {
	dst = RecycleNoClear(dst, len(idx), m.cols)
	for k, i := range idx {
		copy(dst.Row(k), m.Row(i))
	}
	return dst
}

// ColMeansStds computes per-column means and population standard deviations
// in a single pass, shifted by row 0 for numerical stability (see ColStds).
// The returned means equal shift + Σ(x-shift)/n, which can differ from
// ColMeans (Σx/n) in the last bits; the standard scaler uses this fused form.
func (m *Mat[T]) ColMeansStds() (means, stds []T) {
	means = make([]T, m.cols)
	stds = make([]T, m.cols)
	if m.rows == 0 {
		return means, stds
	}
	shift := m.RowCopy(0)
	d1 := make([]T, m.cols) // Σ (x - shift)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			d := v - shift[j]
			d1[j] += d
			stds[j] += T(d * d) // Σ (x - shift)^2, accumulated in place
		}
	}
	n := T(m.rows)
	for j := range means {
		md := d1[j] / n
		means[j] = shift[j] + md
		// var = Σd² /n - (Σd/n)² ; shifted by a data value so the two
		// terms are commensurate and cancellation stays benign.
		v := stds[j]/n - T(md*md)
		if v < 0 {
			v = 0 // guard rounding for constant columns
		}
		stds[j] = T(math.Sqrt(float64(v)))
	}
	return means, stds
}

func shapeErr[T Float](op string, a, b *Mat[T]) error {
	return fmt.Errorf("%w: %s %dx%d by %dx%d", ErrShape, op, a.rows, a.cols, b.rows, b.cols)
}

func shapeErrVec[T Float](op string, m *Mat[T], n int) error {
	return fmt.Errorf("%w: %s %dx%d by %d", ErrShape, op, m.rows, m.cols, n)
}
