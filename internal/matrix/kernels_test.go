package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randMat builds a deterministic pseudo-random matrix with a sprinkling of
// exact zeros so the kernels' skip-zero branches are exercised.
func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		if rng.Intn(8) == 0 {
			continue // leave exact zero
		}
		m.data[i] = rng.NormFloat64()
	}
	return m
}

// bitsEqual fails the test unless two matrices have the same shape and are
// bitwise identical (sameBits, mulrows_test.go, compares the elements).
func bitsEqual[T Float](t *testing.T, name string, got, want *Mat[T]) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", name, got.rows, got.cols, want.rows, want.cols)
	}
	sameBits(t, name, got.data, want.data)
}

func TestMulMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Sizes straddle the column-panel widths and the parallel cutoff.
	for _, dims := range [][3]int{{3, 4, 5}, {17, 33, 9}, {64, 64, 64}, {130, 257, 70}, {100, 300, 259}} {
		a := randMat(rng, dims[0], dims[1])
		b := randMat(rng, dims[1], dims[2])
		got, err := MulInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := naiveMulInto(nil, a, b)
		bitsEqual(t, "mul", got, want)
	}
}

func TestMulParallelMatchesSerialBitwise(t *testing.T) {
	defer SetMaxWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	// 2*211*97*420 flops: above parMinFlops, so the rows really are split.
	a := randMat(rng, 211, 97)
	b := randMat(rng, 97, 420)
	// MulVec crosses the same cutoff only at 2*rows*cols flops.
	tall := randMat(rng, 2100, 2000)
	v := make([]float64, 2000)
	for i := range v {
		v[i] = rng.NormFloat64()
	}

	SetMaxWorkers(1)
	serial, err := MulInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	serialVec, err := MulVecInto(nil, tall, v)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3, 8} {
		SetMaxWorkers(workers)
		par, err := MulInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "parallel mul", par, serial)
		parVec, err := MulVecInto(nil, tall, v)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "parallel mulvec", parVec, serialVec)
	}
}

func TestMulTransposeAMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 57, 23)
	b := randMat(rng, 57, 41)
	got, err := MulTransposeAInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveMulInto(nil, a.T(), b)
	bitsEqual(t, "mulTa", got, want)

	// Accumulating variant: dst starts non-zero and gains the product.
	acc := randMat(rng, 23, 41)
	base := acc.Clone()
	if err := MulTransposeAAccum(acc, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range acc.data {
		wantv := base.data[i]
		// reproduce the ascending-k accumulation on top of base
		wantv = accumRef(wantv, a, b, i/41, i%41)
		if math.Float64bits(acc.data[i]) != math.Float64bits(wantv) {
			t.Fatalf("mulTaAccum element %d = %v, want %v", i, acc.data[i], wantv)
		}
	}
}

// accumRef folds a's column i dotted with b's column j onto v in ascending
// row order with the kernel's skip-zero rule.
func accumRef(v float64, a, b *Matrix, i, j int) float64 {
	for k := 0; k < a.rows; k++ {
		av := a.At(k, i)
		if av == 0 {
			continue
		}
		v += av * b.At(k, j)
	}
	return v
}

func TestMulTransposeBMatchesNaiveBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 37, 29)
	b := randMat(rng, 44, 29)
	got, err := MulTransposeBInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Reference: plain ascending dot products (the naive mul's skip-zero
	// branch does not reorder a dot product, so direct dots are the oracle).
	want := New(37, 44)
	for i := 0; i < 37; i++ {
		for j := 0; j < 44; j++ {
			s := 0.0
			for k := 0; k < 29; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			want.Set(i, j, s)
		}
	}
	bitsEqual(t, "mulTb", got, want)
}

func TestTIntoMatchesElementwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{1, 1}, {7, 3}, {33, 65}, {100, 31}} {
		m := randMat(rng, dims[0], dims[1])
		got := TInto(nil, m)
		for i := 0; i < m.rows; i++ {
			for j := 0; j < m.cols; j++ {
				if got.At(j, i) != m.At(i, j) {
					t.Fatalf("T(%dx%d)[%d][%d] mismatch", dims[0], dims[1], j, i)
				}
			}
		}
	}
}

func TestAddIntoAliasing(t *testing.T) {
	a, _ := NewFromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := NewFromRows([][]float64{{10, 20}, {30, 40}})
	out, err := AddInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(1, 1) != 44 {
		t.Fatalf("AddInto = %v", out)
	}
	// In-place: dst aliases a.
	if _, err := AddInto(a, a, b); err != nil {
		t.Fatal(err)
	}
	if a.At(0, 0) != 11 || a.At(1, 1) != 44 {
		t.Fatalf("in-place AddInto = %v", a)
	}
}

func TestRecycleReusesBacking(t *testing.T) {
	m := New(4, 6)
	m.Set(2, 2, 9)
	r := Recycle(m, 3, 8)
	if r.Rows() != 3 || r.Cols() != 8 {
		t.Fatalf("Recycle shape %dx%d", r.Rows(), r.Cols())
	}
	if &r.data[0] != &m.data[0] {
		t.Fatal("Recycle did not reuse backing array")
	}
	for _, v := range r.data {
		if v != 0 {
			t.Fatal("Recycle did not zero")
		}
	}
	grown := Recycle(r, 10, 10)
	if len(grown.data) != 100 {
		t.Fatalf("Recycle grow len %d", len(grown.data))
	}
}

func TestSelectRowsInto(t *testing.T) {
	m, _ := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	dst := SelectRowsInto(nil, m, []int{2, 0})
	if dst.At(0, 0) != 5 || dst.At(1, 1) != 2 {
		t.Fatalf("SelectRowsInto = %v", dst)
	}
	dst2 := SelectRowsInto(dst, m, []int{1})
	if &dst2.data[0] != &dst.data[0] {
		t.Fatal("SelectRowsInto did not reuse backing")
	}
	if dst2.At(0, 1) != 4 {
		t.Fatalf("SelectRowsInto reuse = %v", dst2)
	}
}

// refTwoPassStds is the pre-PR two-pass reference: exact means first, then
// squared deviations.
func refTwoPassStds(m *Matrix) []float64 {
	means := m.ColMeans()
	stds := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		for j, v := range m.Row(i) {
			d := v - means[j]
			stds[j] += d * d
		}
	}
	for j := range stds {
		stds[j] = math.Sqrt(stds[j] / float64(m.rows))
	}
	return stds
}

// refTwoPassCovariance is the pre-PR two-pass reference covariance.
func refTwoPassCovariance(m *Matrix) *Matrix {
	cov := New(m.cols, m.cols)
	if m.rows < 2 {
		return cov
	}
	means := m.ColMeans()
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for a := 0; a < m.cols; a++ {
			da := row[a] - means[a]
			crow := cov.Row(a)
			for b := a; b < m.cols; b++ {
				crow[b] += da * (row[b] - means[b])
			}
		}
	}
	n := float64(m.rows - 1)
	for a := 0; a < m.cols; a++ {
		for b := a; b < m.cols; b++ {
			v := cov.At(a, b) / n
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov
}

// TestColStatsStability feeds data with a huge common offset — the case
// that destroys the textbook ΣX² one-pass variance — and checks the
// shifted single-pass kernel against the two-pass reference.
func TestColStatsStability(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := New(500, 4)
	offsets := []float64{1e9, -2.5e8, 1e6, 0}
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] = offsets[j] + rng.NormFloat64()
		}
	}
	want := refTwoPassStds(m)
	got := m.ColStds()
	for j := range want {
		if rel := math.Abs(got[j]-want[j]) / want[j]; rel > 1e-9 {
			t.Fatalf("col %d std = %v, two-pass %v (rel err %g)", j, got[j], want[j], rel)
		}
	}
	means, _ := m.ColMeansStds()
	ref := m.ColMeans()
	for j := range ref {
		if d := math.Abs(means[j] - ref[j]); d > 1e-6*math.Abs(ref[j])+1e-12 {
			t.Fatalf("col %d fused mean = %v, ColMeans %v", j, means[j], ref[j])
		}
	}
}

func TestCovarianceStability(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(400, 3)
	for i := 0; i < m.rows; i++ {
		row := m.Row(i)
		row[0] = 1e9 + rng.NormFloat64()
		row[1] = -5e8 + 2*rng.NormFloat64()
		row[2] = rng.NormFloat64()
	}
	want := refTwoPassCovariance(m)
	got := m.Covariance()
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			scale := math.Max(math.Abs(want.At(a, b)), 1)
			if d := math.Abs(got.At(a, b) - want.At(a, b)); d/scale > 1e-9 {
				t.Fatalf("cov[%d][%d] = %v, two-pass %v", a, b, got.At(a, b), want.At(a, b))
			}
		}
	}
	// Degenerate shapes stay well-defined.
	if c := New(1, 3).Covariance(); c.At(0, 0) != 0 {
		t.Fatal("single-row covariance should be zero")
	}
}

func TestSetMaxWorkersClampsAndReports(t *testing.T) {
	defer SetMaxWorkers(runtime.GOMAXPROCS(0))
	SetMaxWorkers(-3)
	if Parallelism() != 1 {
		t.Fatalf("Parallelism after SetMaxWorkers(-3) = %d", Parallelism())
	}
	SetMaxWorkers(6)
	if Parallelism() != 6 {
		t.Fatalf("Parallelism = %d, want 6", Parallelism())
	}
}
