package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// solveLeastSquaresRowMajor is the textbook Householder loop
// SolveLeastSquares was before it moved to a column-major copy: every
// element read and written through At/Set on a row-major clone of A. It is
// the oracle the rewrite must equal bit for bit. Its products are
// float64(a*b) as well, so it states the same arithmetic on every
// architecture; on amd64 the conversions change no instruction.
func solveLeastSquaresRowMajor(a *Matrix, b []float64) []float64 {
	m, n := a.rows, a.cols
	r := a.Clone()
	y := make([]float64, m)
	copy(y, b)
	for k := 0; k < n; k++ {
		norm := 0.0
		for i := k; i < m; i++ {
			v := r.At(i, k)
			norm += float64(v * v)
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			continue
		}
		if r.At(k, k) > 0 {
			norm = -norm
		}
		for i := k; i < m; i++ {
			r.Set(i, k, r.At(i, k)/norm)
		}
		r.Set(k, k, r.At(k, k)+1)
		for j := k + 1; j < n; j++ {
			s := 0.0
			for i := k; i < m; i++ {
				s += float64(r.At(i, k) * r.At(i, j))
			}
			s = -s / r.At(k, k)
			for i := k; i < m; i++ {
				r.Set(i, j, r.At(i, j)+float64(s*r.At(i, k)))
			}
		}
		s := 0.0
		for i := k; i < m; i++ {
			s += float64(r.At(i, k) * y[i])
		}
		s = -s / r.At(k, k)
		for i := k; i < m; i++ {
			y[i] += float64(s * r.At(i, k))
		}
		r.Set(k, k, -norm)
	}
	x := make([]float64, n)
	for k := n - 1; k >= 0; k-- {
		d := r.At(k, k)
		if math.Abs(d) < 1e-12 {
			x[k] = 0
			continue
		}
		s := y[k]
		for j := k + 1; j < n; j++ {
			s -= float64(r.At(k, j) * x[j])
		}
		x[k] = s / d
	}
	return x
}

// lstsqSystem is one least-squares system of the kinds the package's
// callers solve.
type lstsqSystem struct {
	name string
	a    *Matrix
	b    []float64
}

// randomSystem is an m x n system of normal entries at a random scale,
// with an intercept column when intercept is set (LinearRegression's
// [1 X] design).
func randomSystem(rng *rand.Rand, m, n int, intercept bool) lstsqSystem {
	a := New(m, n)
	scale := math.Pow(10, float64(rng.Intn(7)-3))
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, scale*rng.NormFloat64())
		}
		if intercept {
			a.Set(i, 0, 1)
		}
	}
	b := make([]float64, m)
	for i := range b {
		b[i] = rng.NormFloat64() * 10
	}
	return lstsqSystem{name: "random", a: a, b: b}
}

// ridgeAugmented stacks sqrt(alpha) e_j rows under every column but the
// intercept, with zero targets: LinearRegression with Alpha > 0 and MICE's
// per-column regressions.
func ridgeAugmented(s lstsqSystem, alpha float64) lstsqSystem {
	m, n := s.a.rows, s.a.cols
	a := New(m+n-1, n)
	copy(a.data, s.a.data)
	for j := 1; j < n; j++ {
		a.Set(m+j-1, j, math.Sqrt(alpha))
	}
	b := make([]float64, m+n-1)
	copy(b, s.b)
	return lstsqSystem{name: "ridge", a: a, b: b}
}

// arSystem is ARModel's design over a random walk: an intercept and p
// lags of the series per row.
func arSystem(rng *rand.Rand, n, p int) lstsqSystem {
	series := make([]float64, n)
	for t := 1; t < n; t++ {
		series[t] = 0.8*series[t-1] + rng.NormFloat64()
	}
	rows := n - p
	a := New(rows, p+1)
	b := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := r + p
		a.Set(r, 0, 1)
		for lag := 1; lag <= p; lag++ {
			a.Set(r, lag, series[t-lag])
		}
		b[r] = series[t]
	}
	return lstsqSystem{name: "ar", a: a, b: b}
}

// rankDeficient returns s with its columns made dependent per kind: a
// zero column, a duplicated column, or one column the sum of two others.
func rankDeficient(rng *rand.Rand, s lstsqSystem, kind int) lstsqSystem {
	m, n := s.a.rows, s.a.cols
	j := rng.Intn(n)
	for i := 0; i < m; i++ {
		switch kind {
		case 0:
			s.a.Set(i, j, 0)
		case 1:
			s.a.Set(i, j, s.a.At(i, (j+1)%n))
		default:
			s.a.Set(i, j, s.a.At(i, (j+1)%n)+s.a.At(i, (j+2)%n))
		}
	}
	s.name = "rank-deficient"
	return s
}

// TestSolveLeastSquaresMatchesRowMajorOracle: the column-major solve gives
// the row-major loop's coefficients bit for bit on random, rank-deficient,
// ridge-augmented and autoregressive systems, square ones and one-column
// ones included.
func TestSolveLeastSquaresMatchesRowMajorOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var systems []lstsqSystem
	for range 300 {
		n := 1 + rng.Intn(12)
		m := n + rng.Intn(3*n+40)
		if rng.Intn(8) == 0 {
			m = n // square
		}
		s := randomSystem(rng, m, n, rng.Intn(2) == 0)
		systems = append(systems, s)
		if n > 1 {
			systems = append(systems, ridgeAugmented(s, math.Pow(10, float64(rng.Intn(5)-3))))
			systems = append(systems, rankDeficient(rng, randomSystem(rng, m, n, true), rng.Intn(3)))
		}
	}
	for p := 1; p <= 8; p++ {
		systems = append(systems, arSystem(rng, 40+rng.Intn(400), p))
	}
	systems = append(systems, lstsqSystem{name: "zero", a: New(5, 3), b: []float64{1, 2, 3, 4, 5}})
	for i, s := range systems {
		want := solveLeastSquaresRowMajor(s.a, s.b)
		got, err := SolveLeastSquares(s.a, s.b)
		if err != nil {
			t.Fatalf("system %d (%s %dx%d): %v", i, s.name, s.a.rows, s.a.cols, err)
		}
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("system %d (%s %dx%d): x[%d] = %v, row-major oracle %v", i, s.name, s.a.rows, s.a.cols, j, got[j], want[j])
			}
		}
	}
}
