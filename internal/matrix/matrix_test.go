package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustFromRows(t *testing.T, rows [][]float64) *Matrix {
	t.Helper()
	m, err := NewFromRows(rows)
	if err != nil {
		t.Fatalf("NewFromRows: %v", err)
	}
	return m
}

func TestNewFromRowsRagged(t *testing.T) {
	_, err := NewFromRows([][]float64{{1, 2}, {3}})
	if err == nil {
		t.Fatal("want error for ragged rows")
	}
}

func TestAtSetRow(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 5)
	if got := m.At(1, 2); got != 5 {
		t.Fatalf("At(1,2) = %v, want 5", got)
	}
	r := m.Row(1)
	r[0] = 7 // Row is a view
	if m.At(1, 0) != 7 {
		t.Fatal("Row should be a view into the matrix")
	}
	rc := m.RowCopy(1)
	rc[0] = 99
	if m.At(1, 0) != 7 {
		t.Fatal("RowCopy must not alias the matrix")
	}
}

func TestMul(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2}, {3, 4}})
	b := mustFromRows(t, [][]float64{{5, 6}, {7, 8}})
	got, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := mustFromRows(t, [][]float64{{19, 22}, {43, 50}})
	if !equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
	if _, err := a.Mul(New(3, 2)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestTranspose(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}})
	at := TInto(nil, a)
	if at.Rows() != 3 || at.Cols() != 2 {
		t.Fatalf("T shape %dx%d", at.Rows(), at.Cols())
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", at)
	}
}

func TestSelectRowsCols(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	r := a.SelectRows([]int{2, 0})
	if r.At(0, 0) != 7 || r.At(1, 2) != 3 {
		t.Fatalf("SelectRows = %v", r)
	}
	c := a.SelectCols([]int{2, 1})
	if c.At(0, 0) != 3 || c.At(2, 1) != 8 {
		t.Fatalf("SelectCols = %v", c)
	}
	s := a.SliceRows(1, 3)
	if s.Rows() != 2 || s.At(0, 0) != 4 {
		t.Fatalf("SliceRows = %v", s)
	}
}

func TestColStats(t *testing.T) {
	a := mustFromRows(t, [][]float64{{1, 10}, {3, 30}})
	means := a.ColMeans()
	if means[0] != 2 || means[1] != 20 {
		t.Fatalf("ColMeans = %v", means)
	}
	stds := a.ColStds()
	if math.Abs(stds[0]-1) > 1e-12 || math.Abs(stds[1]-10) > 1e-12 {
		t.Fatalf("ColStds = %v", stds)
	}
	if mins := a.ColMins(); mins[0] != 1 || mins[1] != 10 {
		t.Fatalf("ColMins = %v", mins)
	}
	if maxs := a.ColMaxs(); maxs[0] != 3 || maxs[1] != 30 {
		t.Fatalf("ColMaxs = %v", maxs)
	}
	// Column 0 is 1..4 (mean 2.5: 1.25 over 5), column 1 is constant.
	b := mustFromRows(t, [][]float64{{1, 7}, {2, 7}, {3, 7}, {4, 7}})
	if r0, r1 := b.ColLag1Autocorr(0), b.ColLag1Autocorr(1); r0 != 0.25 || r1 != 0 {
		t.Fatalf("ColLag1Autocorr = %v, %v; want 0.25, 0", r0, r1)
	}
	if r := mustFromRows(t, [][]float64{{5}}).ColLag1Autocorr(0); r != 0 {
		t.Fatalf("ColLag1Autocorr of one row = %v, want 0", r)
	}
}

func TestCovariance(t *testing.T) {
	// Perfectly correlated columns: cov matrix [[1,2],[2,4]] for this data.
	a := mustFromRows(t, [][]float64{{0, 0}, {1, 2}, {2, 4}})
	cov := a.Covariance()
	want := mustFromRows(t, [][]float64{{1, 2}, {2, 4}})
	if !equal(cov, want, 1e-12) {
		t.Fatalf("Covariance = %v, want %v", cov, want)
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// y = 2*x0 - 3*x1 + 1 with an intercept column.
	a := mustFromRows(t, [][]float64{
		{1, 0, 0},
		{1, 1, 0},
		{1, 0, 1},
		{1, 1, 1},
		{1, 2, 1},
	})
	truth := []float64{1, 2, -3}
	b := mulVec(a, truth)
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range truth {
		if math.Abs(x[i]-truth[i]) > 1e-9 {
			t.Fatalf("lstsq x = %v, want %v", x, truth)
		}
	}
}

func TestSolveLeastSquaresOverdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n, p := 200, 4
	a := New(n, p)
	truth := []float64{0.5, -1.5, 2.0, 3.0}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < p; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			s += v * truth[j]
		}
		b[i] = s + 0.001*rng.NormFloat64()
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if math.Abs(x[j]-truth[j]) > 0.01 {
			t.Fatalf("lstsq x = %v, want ~%v", x, truth)
		}
	}
}

func TestSolveLeastSquaresShapeErrors(t *testing.T) {
	if _, err := SolveLeastSquares(New(2, 3), []float64{1, 2}); err == nil {
		t.Fatal("want underdetermined error")
	}
	if _, err := SolveLeastSquares(New(3, 2), []float64{1, 2}); err == nil {
		t.Fatal("want b-length error")
	}
}

func TestSymEigDiagonal(t *testing.T) {
	a := mustFromRows(t, [][]float64{{3, 0}, {0, 1}})
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("vals = %v", vals)
	}
	if math.Abs(math.Abs(vecs.At(0, 0))-1) > 1e-10 {
		t.Fatalf("vecs = %v", vecs)
	}
}

func TestSymEigReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 6
	// Random symmetric matrix.
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := rng.NormFloat64()
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	vals, vecs, err := SymEig(a)
	if err != nil {
		t.Fatal(err)
	}
	// Check A*v_j = lambda_j * v_j for each eigenpair.
	for j := 0; j < n; j++ {
		v := vecs.ColCopy(j)
		av := mulVec(a, v)
		for i := 0; i < n; i++ {
			if math.Abs(av[i]-vals[j]*v[i]) > 1e-8 {
				t.Fatalf("eigenpair %d fails: A*v=%v lambda*v=%v", j, av[i], vals[j]*v[i])
			}
		}
	}
	// Eigenvalues sorted descending.
	for j := 1; j < n; j++ {
		if vals[j] > vals[j-1]+1e-12 {
			t.Fatalf("eigenvalues not descending: %v", vals)
		}
	}
}

func TestSymEigShapeError(t *testing.T) {
	if _, _, err := SymEig(New(2, 3)); err == nil {
		t.Fatal("want shape error")
	}
}

// Property: transpose is an involution.
func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c := 1+rng.Intn(8), 1+rng.Intn(8)
		m := New(r, c)
		for i := range m.Data() {
			m.Data()[i] = rng.NormFloat64()
		}
		return equal(TInto(nil, TInto(nil, m)), m, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: (A*B)^T == B^T * A^T.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(r, k), New(k, c)
		for i := range a.Data() {
			a.Data()[i] = rng.NormFloat64()
		}
		for i := range b.Data() {
			b.Data()[i] = rng.NormFloat64()
		}
		ab, err := a.Mul(b)
		if err != nil {
			return false
		}
		btat, err := TInto(nil, b).Mul(TInto(nil, a))
		if err != nil {
			return false
		}
		return equal(TInto(nil, ab), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	a := mustFromRows(t, [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	got, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if !equal(got, a, 0) {
		t.Fatal("A*I != A")
	}
}

func TestFromSlice(t *testing.T) {
	m, err := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("FromSlice At(1,0) = %v", m.At(1, 0))
	}
	if _, err := FromSlice(2, 2, []float64{1}); err == nil {
		t.Fatal("want length error")
	}
}

// TestSolveLeastSquaresRankDeficient pins the rank handling: a duplicated
// column must not crash the solver, and the fit must still reproduce b.
func TestSolveLeastSquaresRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 60
	a := New(n, 3)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		a.Set(i, 0, v)
		a.Set(i, 1, v) // exact duplicate column
		a.Set(i, 2, rng.NormFloat64())
		b[i] = 3*v - a.At(i, 2)
	}
	x, err := SolveLeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// The combined weight on the duplicated columns must equal 3 and the
	// residual must be ~0, whatever split the solver chose.
	if math.Abs(x[0]+x[1]-3) > 1e-6 || math.Abs(x[2]+1) > 1e-6 {
		t.Fatalf("rank-deficient solution %v", x)
	}
	pred := mulVec(a, x)
	for i := range b {
		if math.Abs(pred[i]-b[i]) > 1e-6 {
			t.Fatalf("residual at %d: %v vs %v", i, pred[i], b[i])
		}
	}
}

// equal reports whether a and b have one shape and all entries within tol
// of each other.
func equal(a, b *Matrix, tol float64) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for i, v := range a.Data() {
		if math.Abs(v-b.Data()[i]) > tol {
			return false
		}
	}
	return true
}

// mulVec is a*v, each element an ascending-index dot product.
func mulVec(a *Matrix, v []float64) []float64 {
	out := make([]float64, a.Rows())
	for i := range out {
		for j, x := range a.Row(i) {
			out[i] += x * v[j]
		}
	}
	return out
}
