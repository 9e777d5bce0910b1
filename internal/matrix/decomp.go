package matrix

import (
	"fmt"
	"math"
	"sort"
)

// SolveLeastSquares returns x minimizing ||A*x - b||_2 using Householder QR
// with column-norm-based rank handling. A is rows x cols with rows >= cols
// required; b has len rows.
//
// The reflections run over a column-major copy of A, so every inner loop
// walks contiguous memory; the operations and their order are the
// row-major textbook loop's, so the result is too, bit for bit. Every
// product is an explicit float64(a*b): no architecture fuses it into a
// multiply-add, so an arm64 solve rounds as an amd64 one does.
func SolveLeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if a.rows != len(b) {
		return nil, fmt.Errorf("%w: lstsq A %dx%d, b %d", ErrShape, a.rows, a.cols, len(b))
	}
	if a.rows < a.cols {
		return nil, fmt.Errorf("%w: lstsq underdetermined %dx%d", ErrShape, a.rows, a.cols)
	}
	m, n := a.rows, a.cols
	// r is A column by column: column j is r[j*m : (j+1)*m].
	r := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j, v := range a.data[i*n : (i+1)*n] {
			r[j*m+i] = v
		}
	}
	y := make([]float64, m)
	copy(y, b)

	// Householder QR: transform R in place, apply the same reflections to y.
	for k := 0; k < n; k++ {
		col := r[k*m+k : (k+1)*m] // column k from the diagonal down
		norm := 0.0
		for _, v := range col {
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue // rank-deficient column; leave zeros, coefficient stays 0
		}
		if col[0] > 0 {
			norm = -norm
		}
		// Householder vector v stored in column k from the diagonal down.
		for i := range col {
			col[i] /= norm
		}
		col[0] += 1
		for j := k + 1; j < n; j++ {
			reflect(col, r[j*m+k:(j+1)*m])
		}
		reflect(col, y[k:])
		col[0] = -norm
	}

	// Back substitution on the upper-triangular part of r.
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		d := r[k*m+k]
		if math.Abs(d) < 1e-12 {
			x[k] = 0
			continue
		}
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= float64(r[j*m+k] * x[j])
		}
		x[k] = s / d
	}
	return x, nil
}

// reflect applies the Householder reflection stored in v (its pivot in
// v[0]) to c, which has v's length: c += s*v with s = -(v·c)/v[0].
func reflect(v, c []float64) {
	c = c[:len(v)]
	s := 0.0
	for i, vi := range v {
		s += float64(vi * c[i])
	}
	s = -s / v[0]
	for i, vi := range v {
		c[i] += float64(s * vi)
	}
}

// SymEig computes the eigendecomposition of a symmetric matrix using the
// cyclic Jacobi method. It returns eigenvalues in descending order and the
// corresponding eigenvectors as the columns of the returned matrix.
func SymEig(a *Matrix) (vals []float64, vecs *Matrix, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("%w: symeig on %dx%d", ErrShape, a.rows, a.cols)
	}
	n := a.rows
	s := a.Clone()
	v := Identity(n)

	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		off := 0.0
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(s.At(i, j) * s.At(i, j))
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := s.At(p, q)
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := s.At(p, p), s.At(q, q)
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				sn := t * c
				// Rotate rows/columns p and q of s.
				for k := 0; k < n; k++ {
					skp, skq := s.At(k, p), s.At(k, q)
					s.Set(k, p, float64(c*skp)-float64(sn*skq))
					s.Set(k, q, float64(sn*skp)+float64(c*skq))
				}
				for k := 0; k < n; k++ {
					spk, sqk := s.At(p, k), s.At(q, k)
					s.Set(p, k, float64(c*spk)-float64(sn*sqk))
					s.Set(q, k, float64(sn*spk)+float64(c*sqk))
				}
				// Accumulate eigenvectors.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(sn*vkq))
					v.Set(k, q, float64(sn*vkp)+float64(c*vkq))
				}
			}
		}
	}

	vals = make([]float64, n)
	for i := 0; i < n; i++ {
		vals[i] = s.At(i, i)
	}
	// Sort eigenpairs by descending eigenvalue.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vals[order[a]] > vals[order[b]] })
	sortedVals := make([]float64, n)
	sortedVecs := New(n, n)
	for newJ, oldJ := range order {
		sortedVals[newJ] = vals[oldJ]
		for i := 0; i < n; i++ {
			sortedVecs.Set(i, newJ, v.At(i, oldJ))
		}
	}
	return sortedVals, sortedVecs, nil
}

// Identity returns the n x n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}
