package matrix

import (
	"fmt"
	"math"
	"sync"
)

// Matmul kernels.
//
// One contract for both element widths, on either code path, at any worker
// count: every output cell is the sum of its a*b terms added one at a time
// in ascending k, each multiply and each add rounded once — bit for bit what
// the naive triple loop (naiveMulInto) produces. Nothing is re-associated:
// no FMA (it would skip the product's rounding), no k-direction
// vectorisation, no partial sums. The determinism tests (kernels_test.go)
// and the search-level equivalence suites rest on this.
//
// All matmul forms are thin drivers over one primitive, mulRows: for each
// row i, c[i][0:n] += Σ_k a[i*ars+k*aks] * b[k][0:n]. On amd64 with AVX2 it
// is an assembly micro-kernel vectorised across the output columns j, so a
// SIMD lane is a cell and keeps the cell's scalar order (mulrows_amd64.s);
// elsewhere it is mulRowsGeneric below. Row parallelism gives each output
// row to exactly one goroutine.

const (
	// parMinFlops is the flop cutoff (2*m*n*k) below which every form stays
	// on the calling goroutine, whatever the worker budget. Measured with the
	// AVX2 kernel on the 2-vCPU box this was tuned on (min of 7 runs, one
	// goroutine vs parallelRows with a budget of 2): 64^3 19 us vs 23 us,
	// 128^3 (4.2 Mflop) 190 vs 201, 144^3 (6.0) 261 vs 295, 160^3 (8.2)
	// 370 vs 319, 192^3 (14) 760 vs 617, 256^3 (34) 1653 vs 996 — the split
	// first pays near 8 Mflop (a second vCPU here adds 1.66x at best and the
	// handoff costs 4-6 us). Every product of the Fig 11 search, the largest
	// being 464x12x48 = 0.5 Mflop, is below it.
	parMinFlops = 8_000_000
	// parMinRows is the smallest row chunk handed to a parallel worker.
	parMinRows = 16
)

// mulRowsGeneric is the portable form of the package's inner primitive:
//
//	for i in [0, m):  c[i*n + j] += Σ_kk a[i*ars + kk*aks] * b[kk*n + j],  j in [0, n)
//
// with kk ascending for every cell. skipZero drops the terms whose a element
// is +-0 (which differs from adding them when b holds Inf or NaN, or c holds
// -0). The inner statement is naiveMulInto's, so wherever the compiler
// treats one a certain way (fusing the multiply into the add, on some
// architectures) it treats the other the same.
func mulRowsGeneric[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero bool) {
	for i := 0; i < m; i++ {
		crow := c[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := a[i*ars+kk*aks]
			if skipZero && av == 0 {
				continue
			}
			for j, bv := range b[kk*n : (kk+1)*n] {
				crow[j] += av * bv
			}
		}
	}
}

// mulAccum adds the m x n product described by mulRows's formula into c,
// splitting rows across the worker budget above parMinFlops.
func mulAccum[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero bool) {
	if m == 0 || k == 0 || n == 0 {
		return
	}
	if 2*m*k*n < parMinFlops {
		mulRows(c, a, ars, aks, b, m, k, n, skipZero)
		return
	}
	parallelRows(m, parMinRows, func(lo, hi int) {
		mulRows(c[lo*n:], a[lo*ars:], ars, aks, b, hi-lo, k, n, skipZero)
	})
}

// MulInto computes dst = a*b, reusing dst's backing array when it has
// capacity (dst may be nil or any shape) and returning the result matrix.
// Terms whose a element is zero are skipped, as in naiveMulInto.
func MulInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.cols != b.rows {
		return nil, shapeErr("mul", a, b)
	}
	dst = Recycle(dst, a.rows, b.cols)
	mulAccum(dst.data, a.data, a.cols, 1, b.data, a.rows, a.cols, b.cols, true)
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
				orow[j] += av * bv
			}
		}
	}
	return dst
}

// MulVecInto computes dst = m*v, reusing dst when cap(dst) >= m.rows.
// Each output element is an ascending-index dot product with no term
// skipped.
func MulVecInto[T Float](dst []T, m *Mat[T], v []T) ([]T, error) {
	if m.cols != len(v) {
		return nil, shapeErrVec("mulvec", m, len(v))
	}
	dst = RecycleVec(dst, m.rows)
	clear(dst)
	mulAccum(dst, m.data, m.cols, 1, v, m.rows, m.cols, 1, false)
	return dst, nil
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

// MulTransposeAInto computes dst = aᵀ*b without materialising aᵀ.
// a is n x p, b is n x q, dst is p x q; zero a elements are skipped, so the
// result is bitwise naive aᵀ then Mul.
func MulTransposeAInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.rows != b.rows {
		return nil, shapeErr("mulTa", a, b)
	}
	dst = Recycle(dst, a.cols, b.cols)
	mulAccum(dst.data, a.data, 1, a.cols, b.data, a.cols, a.rows, b.cols, true)
	return dst, nil
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
	mulAccum(dst.data, a.data, 1, a.cols, b.data, a.cols, a.rows, b.cols, true)
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
	dst = Recycle(dst, a.rows, b.rows)
	mulAccum(dst.data, a.data, a.cols, 1, bt.data, a.rows, a.cols, b.rows, false)
	pool.Put(bt)
	return dst, nil
}

// AddInto computes dst = a + b elementwise, reusing dst when capacity
// allows. dst may alias a or b for in-place accumulation.
func AddInto[T Float](dst, a, b *Mat[T]) (*Mat[T], error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, shapeErr("add", a, b)
	}
	if dst != a && dst != b {
		dst = RecycleNoClear(dst, a.rows, a.cols)
	}
	ad, bd, dd := a.data, b.data, dst.data
	for i := range dd {
		dd[i] = ad[i] + bd[i]
	}
	return dst, nil
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
// ColMeans (Σx/n) in the last bits; StandardScaler uses this fused form.
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
			stds[j] += d * d // Σ (x - shift)^2, accumulated in place
		}
	}
	n := T(m.rows)
	for j := range means {
		md := d1[j] / n
		means[j] = shift[j] + md
		// var = Σd² /n - (Σd/n)² ; shifted by a data value so the two
		// terms are commensurate and cancellation stays benign.
		v := stds[j]/n - md*md
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
