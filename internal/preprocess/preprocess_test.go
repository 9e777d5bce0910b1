package preprocess

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// Compile-time checks that every transformer satisfies core.Transformer.
var (
	_ core.Transformer = (*Scaler)(nil)
	_ core.Transformer = (*NoOp)(nil)
	_ core.Transformer = (*Covariance)(nil)
	_ core.Transformer = (*PCA)(nil)
	_ core.Transformer = (*SelectKBest)(nil)
)

func ds(t *testing.T, rows [][]float64, y []float64) *dataset.Dataset {
	t.Helper()
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dataset.New(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestStandardScaler(t *testing.T) {
	d := ds(t, [][]float64{{1, 100}, {3, 300}}, nil)
	s := NewStandardScaler()
	if _, err := s.Transform(d); err == nil {
		t.Fatal("transform before fit should fail")
	}
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	means := out.X.ColMeans()
	stds := out.X.ColStds()
	for j := 0; j < 2; j++ {
		if math.Abs(means[j]) > 1e-12 || math.Abs(stds[j]-1) > 1e-12 {
			t.Fatalf("col %d mean=%v std=%v", j, means[j], stds[j])
		}
	}
	// Original untouched.
	if d.X.At(0, 0) != 1 {
		t.Fatal("transform mutated input")
	}
	// Shape mismatch error.
	if _, err := s.Transform(ds(t, [][]float64{{1, 2, 3}}, nil)); err == nil {
		t.Fatal("want shape error")
	}
}

func TestStandardScalerConstantColumn(t *testing.T) {
	d := ds(t, [][]float64{{5, 1}, {5, 2}}, nil)
	s := NewStandardScaler()
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.X.At(0, 0) != 0 || out.X.At(1, 0) != 0 {
		t.Fatal("constant column should centre to zero without dividing by zero")
	}
}

func TestMinMaxScaler(t *testing.T) {
	d := ds(t, [][]float64{{0, -10}, {5, 0}, {10, 10}}, nil)
	s := NewMinMaxScaler()
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.X.At(0, 0) != 0 || out.X.At(2, 0) != 1 || out.X.At(1, 0) != 0.5 {
		t.Fatalf("minmax wrong: %v", out.X)
	}
	// Values outside the training range extrapolate beyond [0,1]; fitted
	// ranges come from training only.
	test := ds(t, [][]float64{{20, 0}}, nil)
	out, err = s.Transform(test)
	if err != nil {
		t.Fatal(err)
	}
	if out.X.At(0, 0) != 2 {
		t.Fatalf("out-of-range transform = %v, want 2", out.X.At(0, 0))
	}
}

func TestRobustScalerIgnoresOutliers(t *testing.T) {
	// Column with one huge outlier: robust scaling should map the median
	// to 0 and be insensitive to the outlier's magnitude.
	rows := [][]float64{{1}, {2}, {3}, {4}, {1e9}}
	d := ds(t, rows, nil)
	s := NewRobustScaler()
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(out.X.At(2, 0)) > 1e-9 {
		t.Fatalf("median should map to 0, got %v", out.X.At(2, 0))
	}
	// Compare against standard scaling, which the outlier distorts badly:
	// robust-scaled inliers stay O(1).
	for i := 0; i < 4; i++ {
		if math.Abs(out.X.At(i, 0)) > 3 {
			t.Fatalf("inlier %d scaled to %v, should stay small", i, out.X.At(i, 0))
		}
	}
}

func TestNoOpPassThrough(t *testing.T) {
	d := ds(t, [][]float64{{1, 2}}, []float64{3})
	n := NewNoOp()
	if err := n.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := n.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out != d {
		t.Fatal("NoOp should return the identical dataset")
	}
}

func TestPCARecoversLowRankStructure(t *testing.T) {
	// Data on a 1-D line in 3-D space: first component captures all variance.
	rng := rand.New(rand.NewSource(5))
	rows := make([][]float64, 50)
	for i := range rows {
		tt := rng.NormFloat64()
		rows[i] = []float64{2 * tt, -tt, 0.5 * tt}
	}
	d := ds(t, rows, nil)
	p := NewPCA(2)
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := p.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.X.Cols() != 2 {
		t.Fatalf("PCA output cols = %d", out.X.Cols())
	}
	if p.ExplainedVariance[0] <= 0 {
		t.Fatal("first component should carry variance")
	}
	if p.ExplainedVariance[1] > 1e-9 {
		t.Fatalf("second component should be ~0 for rank-1 data, got %v", p.ExplainedVariance[1])
	}
	// Second output column should be ~0 everywhere.
	for i := 0; i < out.X.Rows(); i++ {
		if math.Abs(out.X.At(i, 1)) > 1e-6 {
			t.Fatalf("row %d second PC = %v", i, out.X.At(i, 1))
		}
	}
}

func TestPCAAllComponentsPreservesDistances(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	d := ds(t, rows, nil)
	p := NewPCA(0) // keep all
	if err := p.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := p.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	// Full orthogonal projection preserves pairwise distances.
	dist := func(x *matrix.Matrix, a, b int) float64 {
		s := 0.0
		for j := 0; j < x.Cols(); j++ {
			diff := x.At(a, j) - x.At(b, j)
			s += diff * diff
		}
		return math.Sqrt(s)
	}
	for i := 1; i < 10; i++ {
		if math.Abs(dist(d.X, 0, i)-dist(out.X, 0, i)) > 1e-8 {
			t.Fatalf("distance %d not preserved", i)
		}
	}
}

func TestSelectKBestFindsInformativeFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		informative := rng.NormFloat64()
		rows[i] = []float64{rng.NormFloat64(), informative, rng.NormFloat64(), 2 * informative}
		y[i] = 3*informative + 0.01*rng.NormFloat64()
	}
	d := ds(t, rows, y)
	d.ColNames = []string{"noise0", "signal1", "noise2", "signal3"}
	s := NewSelectKBest(2)
	if err := s.Fit(d); err != nil {
		t.Fatal(err)
	}
	kept := s.keep
	if len(kept) != 2 || kept[0] != 1 || kept[1] != 3 {
		t.Fatalf("SelectKBest kept %v, want [1 3]", kept)
	}
	out, err := s.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.X.Cols() != 2 || out.ColNames[0] != "signal1" || out.ColNames[1] != "signal3" {
		t.Fatalf("transform wrong: cols=%d names=%v", out.X.Cols(), out.ColNames)
	}
}

func TestSelectKBestRequiresTarget(t *testing.T) {
	d := ds(t, [][]float64{{1, 2}}, nil)
	if err := NewSelectKBest(1).Fit(d); err == nil {
		t.Fatal("want unsupervised error")
	}
}

func TestCovariancePlusPCAEqualsCenteredPCA(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rows := make([][]float64, 40)
	for i := range rows {
		rows[i] = []float64{5 + rng.NormFloat64(), -3 + 2*rng.NormFloat64()}
	}
	d := ds(t, rows, nil)
	cov := NewCovariance()
	if err := cov.Fit(d); err != nil {
		t.Fatal(err)
	}
	centred, err := cov.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	means := centred.X.ColMeans()
	if math.Abs(means[0]) > 1e-9 || math.Abs(means[1]) > 1e-9 {
		t.Fatalf("covariance centering failed: %v", means)
	}
}

func TestCloneIsUnfittedAndKeepsParams(t *testing.T) {
	p := NewPCA(3)
	c := p.Clone()
	if c.Params()["n_components"] != 3 {
		t.Fatal("clone lost n_components")
	}
	if _, err := c.Transform(ds(t, [][]float64{{1, 2, 3}}, nil)); err == nil {
		t.Fatal("clone should be unfitted")
	}
	s := NewSelectKBest(4)
	if s.Clone().Params()["k"] != 4 {
		t.Fatal("selectkbest clone lost k")
	}
}

func TestSetParam(t *testing.T) {
	p := NewPCA(1)
	if err := p.SetParam("n_components", 5); err != nil {
		t.Fatal(err)
	}
	if p.NComponents != 5 {
		t.Fatal("SetParam did not apply")
	}
	if err := p.SetParam("bogus", 1); err == nil {
		t.Fatal("want unknown-param error")
	}
	for _, tr := range []core.Transformer{NewStandardScaler(), NewMinMaxScaler(), NewRobustScaler(), NewNoOp(), NewCovariance()} {
		if err := tr.SetParam("anything", 1); err == nil {
			t.Errorf("%s should reject params", tr.Name())
		}
	}
}

// Property: scaling then inverse relationship — minmax output of training
// data always lies in [0,1].
func TestMinMaxRangeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, c := 2+rng.Intn(30), 1+rng.Intn(5)
		x := matrix.New(n, c)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64() * 100
		}
		d, err := dataset.New(x, nil)
		if err != nil {
			return false
		}
		s := NewMinMaxScaler()
		if err := s.Fit(d); err != nil {
			return false
		}
		out, err := s.Transform(d)
		if err != nil {
			return false
		}
		for _, v := range out.X.Data() {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestScalerAffineRoundTrip pins the ColScale/ColOffset metadata: mapping
// scaled values through the recorded affine must recover the original data
// exactly for every affine scaler, including chained scalers.
func TestScalerAffineRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	rows := make([][]float64, 30)
	for i := range rows {
		rows[i] = []float64{10 + 5*rng.NormFloat64(), -3 + 0.1*rng.NormFloat64(), 7} // last col constant
	}
	d := ds(t, rows, nil)
	scalers := []core.Transformer{NewStandardScaler(), NewMinMaxScaler(), NewRobustScaler(), NewCovariance()}
	for _, s := range scalers {
		if err := s.Fit(d); err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		out, err := s.Transform(d)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if out.ColScale == nil {
			t.Fatalf("%s did not record affine metadata", s.Name())
		}
		for i := 0; i < out.X.Rows(); i++ {
			for j := 0; j < out.X.Cols(); j++ {
				scale, offset := out.ColAffine(j)
				back := out.X.At(i, j)*scale + offset
				if math.Abs(back-d.X.At(i, j)) > 1e-9 {
					t.Fatalf("%s col %d: %v maps back to %v, want %v", s.Name(), j, out.X.At(i, j), back, d.X.At(i, j))
				}
			}
		}
	}
	// Chained scalers compose: standard(minmax(x)) still maps back to x.
	mm := NewMinMaxScaler()
	if err := mm.Fit(d); err != nil {
		t.Fatal(err)
	}
	step1, err := mm.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	std := NewStandardScaler()
	if err := std.Fit(step1); err != nil {
		t.Fatal(err)
	}
	step2, err := std.Transform(step1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < step2.X.Rows(); i++ {
		for j := 0; j < step2.X.Cols(); j++ {
			scale, offset := step2.ColAffine(j)
			back := step2.X.At(i, j)*scale + offset
			if math.Abs(back-d.X.At(i, j)) > 1e-9 {
				t.Fatalf("chained affine col %d: got %v want %v", j, back, d.X.At(i, j))
			}
		}
	}
}
