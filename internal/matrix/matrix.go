// Package matrix provides the dense linear-algebra substrate used by every
// analytics component in coda: row-major matrices generic over float32 and
// float64, with arithmetic, QR-based least squares, and a Jacobi
// eigendecomposition for PCA.
//
// The package is deliberately small and allocation-conscious rather than a
// general BLAS replacement; components in internal/preprocess,
// internal/mlmodels and internal/nn only need the operations defined here.
//
// Matrix (= Mat[float64]) is the element type of every analytics path; the
// float32 instantiation is kept for the row kernel's f32 width, which the
// end-to-end benchmark's matmul probe still times. Both widths keep one
// bitwise contract: every product cell is summed in ascending k with one
// rounding per multiply and per add, so a result equals the naive serial
// triple loop's bit for bit at any worker count, whether the AVX2 row
// micro-kernel or its portable twin computed it (see kernels.go).
package matrix

import (
	"errors"
	"fmt"
	"math"
)

// ErrShape is returned (wrapped) whenever operand dimensions are incompatible.
var ErrShape = errors.New("matrix: incompatible shapes")

// Float constrains matrix element types to the two IEEE-754 widths the
// compute kernels support.
type Float interface {
	float32 | float64
}

// Mat is a dense, row-major matrix of T values.
//
// The zero value is an empty 0x0 matrix. Use New/NewOf or NewFromRows to
// build non-empty matrices.
type Mat[T Float] struct {
	rows, cols int
	data       []T // len == rows*cols, row-major
}

// Matrix is the float64 matrix every f64 code path uses; it predates the
// generic Mat and remains the package's primary type.
type Matrix = Mat[float64]

// New returns a zeroed rows x cols float64 matrix.
// It panics if rows or cols is negative; a zero dimension is allowed.
func New(rows, cols int) *Matrix {
	return NewOf[float64](rows, cols)
}

// NewOf returns a zeroed rows x cols matrix of T.
// It panics if rows or cols is negative; a zero dimension is allowed.
func NewOf[T Float](rows, cols int) *Mat[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Mat[T]{rows: rows, cols: cols, data: make([]T, rows*cols)}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying the
// data. It returns an error if rows are ragged.
func NewFromRows[T Float](rows [][]T) (*Mat[T], error) {
	if len(rows) == 0 {
		return NewOf[T](0, 0), nil
	}
	cols := len(rows[0])
	m := NewOf[T](len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("%w: row %d has %d cols, want %d", ErrShape, i, len(r), cols)
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// FromSlice wraps an existing row-major backing slice without copying.
// len(data) must equal rows*cols.
func FromSlice[T Float](rows, cols int, data []T) (*Mat[T], error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("%w: data length %d != %d*%d", ErrShape, len(data), rows, cols)
	}
	return &Mat[T]{rows: rows, cols: cols, data: data}, nil
}

// ConvertInto copies src into dst element-by-element, converting precision
// and reusing dst's backing array when it has capacity.
func ConvertInto[D, S Float](dst *Mat[D], src *Mat[S]) *Mat[D] {
	dst = RecycleNoClear(dst, src.rows, src.cols)
	for i, v := range src.data {
		dst.data[i] = D(v)
	}
	return dst
}

// Rows returns the number of rows.
func (m *Mat[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Mat[T]) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Mat[T]) At(i, j int) T { return m.data[i*m.cols+j] }

// Set assigns v to the element at row i, column j.
func (m *Mat[T]) Set(i, j int, v T) { m.data[i*m.cols+j] = v }

// Row returns a view (not a copy) of row i as a slice.
func (m *Mat[T]) Row(i int) []T { return m.data[i*m.cols : (i+1)*m.cols] }

// RowCopy returns a copy of row i.
func (m *Mat[T]) RowCopy(i int) []T {
	out := make([]T, m.cols)
	copy(out, m.Row(i))
	return out
}

// ColCopy returns a copy of column j.
func (m *Mat[T]) ColCopy(j int) []T {
	out := make([]T, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.At(i, j)
	}
	return out
}

// Data returns the underlying row-major backing slice (not a copy).
func (m *Mat[T]) Data() []T { return m.data }

// Clone returns a deep copy of m.
func (m *Mat[T]) Clone() *Mat[T] {
	c := NewOf[T](m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// SelectRows returns a new matrix containing rows idx (in order), copying data.
func (m *Mat[T]) SelectRows(idx []int) *Mat[T] {
	out := NewOf[T](len(idx), m.cols)
	for k, i := range idx {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// SelectCols returns a new matrix containing columns idx (in order).
func (m *Mat[T]) SelectCols(idx []int) *Mat[T] {
	out := NewOf[T](m.rows, len(idx))
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range idx {
			dst[k] = src[j]
		}
	}
	return out
}

// SliceRows returns a copy of rows [a, b).
func (m *Mat[T]) SliceRows(a, b int) *Mat[T] {
	out := NewOf[T](b-a, m.cols)
	copy(out.data, m.data[a*m.cols:b*m.cols])
	return out
}

// T returns the transpose of m as a new matrix (tiled; see TInto).
func (m *Mat[T]) T() *Mat[T] {
	return TInto(nil, m)
}

// Add returns m + b.
func (m *Mat[T]) Add(b *Mat[T]) (*Mat[T], error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: add %dx%d and %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] += v
	}
	return out, nil
}

// Sub returns m - b.
func (m *Mat[T]) Sub(b *Mat[T]) (*Mat[T], error) {
	if m.rows != b.rows || m.cols != b.cols {
		return nil, fmt.Errorf("%w: sub %dx%d and %dx%d", ErrShape, m.rows, m.cols, b.rows, b.cols)
	}
	out := m.Clone()
	for i, v := range b.data {
		out.data[i] -= v
	}
	return out, nil
}

// Scale returns s*m as a new matrix.
func (m *Mat[T]) Scale(s T) *Mat[T] {
	out := m.Clone()
	for i := range out.data {
		out.data[i] *= s
	}
	return out
}

// Mul returns the matrix product m*b, bitwise identical to the naive triple
// loop at any worker count (see MulInto).
func (m *Mat[T]) Mul(b *Mat[T]) (*Mat[T], error) {
	return MulInto(nil, m, b)
}

// MulVec returns the matrix-vector product m*v. Each element is an
// ascending-index dot product (see MulVecInto).
func (m *Mat[T]) MulVec(v []T) ([]T, error) {
	return MulVecInto(nil, m, v)
}

// ColMeans returns the per-column mean.
func (m *Mat[T]) ColMeans() []T {
	means := make([]T, m.cols)
	if m.rows == 0 {
		return means
	}
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			means[j] += v
		}
	}
	for j := range means {
		means[j] /= T(m.rows)
	}
	return means
}

// ColStds returns the per-column (population) standard deviation in a
// single pass over the data. Sums are shifted by row 0 — a value of the
// column's own magnitude — so the one-pass variance Σd²/n - (Σd/n)²
// stays numerically benign even for large-offset data (unlike the
// textbook ΣX²-based one-pass form); see TestColStatsStability.
func (m *Mat[T]) ColStds() []T {
	_, stds := m.ColMeansStds()
	return stds
}

// ColMins returns the per-column minimum. For an empty matrix all zeros.
func (m *Mat[T]) ColMins() []T {
	mins := make([]T, m.cols)
	if m.rows == 0 {
		return mins
	}
	copy(mins, m.Row(0))
	for i := 1; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			if v < mins[j] {
				mins[j] = v
			}
		}
	}
	return mins
}

// ColMaxs returns the per-column maximum. For an empty matrix all zeros.
func (m *Mat[T]) ColMaxs() []T {
	maxs := make([]T, m.cols)
	if m.rows == 0 {
		return maxs
	}
	copy(maxs, m.Row(0))
	for i := 1; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	return maxs
}

// Covariance returns the cols x cols sample covariance matrix of m's
// columns in a single pass over the data (the old kernel needed a ColMeans
// pass first). Products are accumulated about a row-0 shift s:
//
//	cov[a][b] = (Σ(xa-sa)(xb-sb) - Da*Db/n) / (n-1),  Da = Σ(xa-sa)
//
// Shifting by an actual data row keeps the correction term commensurate
// with the product sum, so cancellation stays benign for large-offset data
// (see TestCovarianceStability). The kernel is serial: it feeds the Jacobi
// eigensolver, which dominates PCA cost, and serial accumulation keeps the
// result independent of the worker budget.
func (m *Mat[T]) Covariance() *Mat[T] {
	cov := NewOf[T](m.cols, m.cols)
	if m.rows < 2 {
		return cov
	}
	c := m.cols
	shift := m.RowCopy(0)
	d := make([]T, c)    // per-column Σ (x - shift)
	drow := make([]T, c) // current row minus shift
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dv := v - shift[j]
			drow[j] = dv
			d[j] += dv
		}
		for a := 0; a < c; a++ {
			da := drow[a]
			if da == 0 {
				continue
			}
			crow := cov.Row(a)
			for b := a; b < c; b++ {
				crow[b] += da * drow[b]
			}
		}
	}
	n := T(m.rows)
	n1 := T(m.rows - 1)
	for a := 0; a < c; a++ {
		for b := a; b < c; b++ {
			v := (cov.At(a, b) - d[a]*d[b]/n) / n1
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// Equal reports whether m and b have identical shape and all entries within
// tol of each other.
func (m *Mat[T]) Equal(b *Mat[T], tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if math.Abs(float64(v)-float64(b.data[i])) > tol {
			return false
		}
	}
	return true
}

// String renders small matrices for debugging.
func (m *Mat[T]) String() string {
	s := fmt.Sprintf("Matrix(%dx%d)", m.rows, m.cols)
	if m.rows*m.cols <= 64 {
		s += "["
		for i := 0; i < m.rows; i++ {
			s += fmt.Sprintf("%v", m.Row(i))
			if i != m.rows-1 {
				s += "; "
			}
		}
		s += "]"
	}
	return s
}
