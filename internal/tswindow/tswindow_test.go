package tswindow

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

var (
	_ core.Transformer = (*Windows)(nil)
	_ core.Transformer = (*View)(nil)
)

// series builds a T x 2 series where var0(t) = t and var1(t) = 100 + t, so
// every expected window entry is predictable.
func series(t *testing.T, steps int) *dataset.Dataset {
	t.Helper()
	x := matrix.New(steps, 2)
	for i := 0; i < steps; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, 100+float64(i))
	}
	d, err := dataset.New(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCascadedWindowsShapesAndValues(t *testing.T) {
	d := series(t, 10)
	c := NewCascadedWindows(3, 1, 0)
	if err := c.Fit(d); err != nil {
		t.Fatal(err)
	}
	out, err := c.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	// L = T - p - h + 1 = 10 - 3 - 1 + 1 = 7 windows (paper: L-p for h=1...
	// with the window ending at i+p-1 and target at i+p).
	if out.NumSamples() != 7 {
		t.Fatalf("window count %d, want 7", out.NumSamples())
	}
	if out.X.Cols() != 6 {
		t.Fatalf("window width %d, want p*v=6", out.X.Cols())
	}
	if out.WindowLen != 3 || out.NumVars != 2 {
		t.Fatalf("metadata p=%d v=%d", out.WindowLen, out.NumVars)
	}
	// Window 0 covers t=0,1,2 time-major: [0,100,1,101,2,102]; target var0 at t=3.
	want := []float64{0, 100, 1, 101, 2, 102}
	for j, w := range want {
		if out.X.At(0, j) != w {
			t.Fatalf("window0[%d] = %v, want %v", j, out.X.At(0, j), w)
		}
	}
	if out.Y[0] != 3 {
		t.Fatalf("Y[0] = %v, want 3", out.Y[0])
	}
	// Last window covers t=6,7,8, target at t=9.
	if out.Y[6] != 9 {
		t.Fatalf("Y[6] = %v, want 9", out.Y[6])
	}
	// Order preservation inside a window: entries strictly increase for var0.
	if out.X.At(0, 0) >= out.X.At(0, 2) || out.X.At(0, 2) >= out.X.At(0, 4) {
		t.Fatal("temporal order not preserved in window")
	}
}

func TestCascadedWindowsHorizon(t *testing.T) {
	d := series(t, 10)
	c := NewCascadedWindows(2, 3, 1)
	out, err := c.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	// L = 10 - 2 - 3 + 1 = 6; target var1 at t = i + 2 + 3 - 1 = i+4.
	if out.NumSamples() != 6 {
		t.Fatalf("count %d, want 6", out.NumSamples())
	}
	if out.Y[0] != 104 {
		t.Fatalf("Y[0] = %v, want 104", out.Y[0])
	}
}

func TestFlatWindowingMatchesCascadedValues(t *testing.T) {
	d := series(t, 12)
	casc, err := NewCascadedWindows(4, 1, 0).Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := NewFlatWindowing(4, 1, 0).Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if flat.X.Rows() != casc.X.Rows() || flat.X.Cols() != casc.X.Cols() || !slices.Equal(flat.X.Data(), casc.X.Data()) {
		t.Fatal("flat windows must hold the same values as cascaded windows")
	}
	for i := range casc.Y {
		if flat.Y[i] != casc.Y[i] {
			t.Fatal("flat targets differ from cascaded targets")
		}
	}
	// The semantic difference is the metadata: flat is transactional.
	if flat.WindowLen != 0 {
		t.Fatalf("flat WindowLen = %d, want 0", flat.WindowLen)
	}
	if casc.WindowLen != 4 {
		t.Fatalf("cascaded WindowLen = %d, want 4", casc.WindowLen)
	}
}

// TestWindowsHorizonZeroTakesY: at Horizon 0 a window's target is the
// series' own Y at its last row (a label logged beside the readings), its
// inputs are the windows of any other horizon, and Y's affine map carries
// over; a series without a Y per row is refused.
func TestWindowsHorizonZeroTakesY(t *testing.T) {
	d := series(t, 8)
	d.Y = []float64{0, 0, 1, 0, 1, 1, 0, 1}
	d.YScale, d.YOffset = 2, 5
	out, err := NewFlatWindowing(3, 0, 0).Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumSamples() != 6 || !slices.Equal(out.Y, d.Y[2:]) {
		t.Fatalf("%d windows with Y %v, want 6 with %v", out.NumSamples(), out.Y, d.Y[2:])
	}
	ahead, err := NewFlatWindowing(3, 1, 0).Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(out.X.Data()[:ahead.X.Rows()*ahead.X.Cols()], ahead.X.Data()) {
		t.Fatal("horizon-0 windows hold other inputs than horizon-1 windows")
	}
	if out.YScale != 2 || out.YOffset != 5 {
		t.Fatalf("YScale/YOffset = %v/%v, want the series' 2/5", out.YScale, out.YOffset)
	}
	d.Y = d.Y[1:]
	if _, err := NewFlatWindowing(3, 0, 0).Transform(d); err == nil {
		t.Fatal("want an error for a Y shorter than the series")
	}
}

func TestTSAsIID(t *testing.T) {
	d := series(t, 8)
	tr := NewTSAsIID(2, 0)
	out, err := tr.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumSamples() != 6 || out.X.Cols() != 2 {
		t.Fatalf("shape %dx%d, want 6x2", out.NumSamples(), out.X.Cols())
	}
	// Row i is the raw vector at time i; Y[i] = var0 at i+2.
	if out.X.At(3, 1) != 103 || out.Y[3] != 5 {
		t.Fatalf("values wrong: X(3,1)=%v Y[3]=%v", out.X.At(3, 1), out.Y[3])
	}
	if out.WindowLen != 0 {
		t.Fatal("IID view must not carry window metadata")
	}
}

func TestTSAsIs(t *testing.T) {
	d := series(t, 8)
	tr := NewTSAsIs(1, 1)
	out, err := tr.Transform(d)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumSamples() != 7 {
		t.Fatalf("count %d, want 7", out.NumSamples())
	}
	// Y[i] = var1 at i+1; X row i unchanged.
	if out.Y[0] != 101 || out.X.At(0, 0) != 0 {
		t.Fatalf("values wrong: Y[0]=%v", out.Y[0])
	}
	if out.NumVars != 2 {
		t.Fatalf("NumVars = %d, want 2", out.NumVars)
	}
	// Time order preserved.
	for i := 1; i < out.NumSamples(); i++ {
		if out.X.At(i, 0) != out.X.At(i-1, 0)+1 {
			t.Fatal("TSAsIs must preserve time order")
		}
	}
}

func TestWindowingErrors(t *testing.T) {
	d := series(t, 5)
	if _, err := NewCascadedWindows(0, 1, 0).Transform(d); err == nil {
		t.Fatal("want history error")
	}
	if _, err := NewCascadedWindows(3, 0, 0).Transform(d); err == nil {
		t.Fatal("want horizon error")
	}
	if _, err := NewCascadedWindows(3, 1, 9).Transform(d); err == nil {
		t.Fatal("want target range error")
	}
	if _, err := NewCascadedWindows(5, 1, 0).Transform(d); err == nil {
		t.Fatal("want too-short error")
	}
	if _, err := NewTSAsIID(10, 0).Transform(d); err == nil {
		t.Fatal("want IID too-short error")
	}
	if _, err := NewTSAsIs(0, 0).Transform(d); err == nil {
		t.Fatal("want as-is horizon error")
	}
}

func TestSetParamAndClone(t *testing.T) {
	c := NewCascadedWindows(3, 1, 0)
	if err := c.SetParam("history", 5); err != nil {
		t.Fatal(err)
	}
	if err := c.SetParam("horizon", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetParam("target", 1); err != nil {
		t.Fatal(err)
	}
	if c.History != 5 || c.Horizon != 2 || c.Target != 1 {
		t.Fatalf("SetParam not applied: %+v", c)
	}
	if err := c.SetParam("bogus", 1); err == nil {
		t.Fatal("want unknown param error")
	}
	clone := c.Clone()
	if clone.Params()["history"] != 5 {
		t.Fatal("clone lost params")
	}
	for _, tr := range []core.Transformer{NewFlatWindowing(2, 1, 0), NewTSAsIID(1, 0), NewTSAsIs(1, 0)} {
		if err := tr.SetParam("horizon", 3); err != nil {
			t.Errorf("%s: %v", tr.Name(), err)
		}
		if err := tr.SetParam("bogus", 1); err == nil {
			t.Errorf("%s: want unknown param error", tr.Name())
		}
		if tr.Clone().Params()["horizon"] != 3 {
			t.Errorf("%s: clone lost horizon", tr.Name())
		}
	}
}

// Property (paper, Fig 7/8): for any valid (T, p, h), the number of windows
// is T-p-h+1, each window has width p*v, and Y values never come from
// inside their own window.
func TestWindowCountProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(10)
		h := 1 + rng.Intn(5)
		T := p + h + rng.Intn(60)
		v := 1 + rng.Intn(4)
		x := matrix.New(T, v)
		for i := range x.Data() {
			x.Data()[i] = rng.NormFloat64()
		}
		d, err := dataset.New(x, nil)
		if err != nil {
			return false
		}
		out, err := NewCascadedWindows(p, h, 0).Transform(d)
		if err != nil {
			return false
		}
		if out.NumSamples() != T-p-h+1 || out.X.Cols() != p*v {
			return false
		}
		// Target for window i is series value at i+p+h-1, strictly after
		// the window's last timestamp i+p-1.
		for i := 0; i < out.NumSamples(); i++ {
			if out.Y[i] != x.At(i+p+h-1, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestYAffinePropagation pins that windowing transformers carry the target
// column's affine map into YScale/YOffset so pipelines can denormalize
// predictions.
func TestYAffinePropagation(t *testing.T) {
	d := series(t, 10)
	d.ColScale = []float64{2, 3}
	d.ColOffset = []float64{10, 20}
	transformers := []core.Transformer{
		NewCascadedWindows(3, 1, 1),
		NewFlatWindowing(3, 1, 1),
		NewTSAsIID(1, 1),
		NewTSAsIs(1, 1),
	}
	for _, tr := range transformers {
		out, err := tr.Transform(d)
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		if out.YScale != 3 || out.YOffset != 20 {
			t.Fatalf("%s: YScale/YOffset = %v/%v, want 3/20 (target col 1)", tr.Name(), out.YScale, out.YOffset)
		}
		// DenormY inverts: y*3+20.
		back := out.DenormY([]float64{1})
		if back[0] != 23 {
			t.Fatalf("%s: DenormY(1) = %v, want 23", tr.Name(), back[0])
		}
	}
	// Without affine metadata, Y passes through untouched.
	plain := series(t, 10)
	out, err := NewCascadedWindows(3, 1, 0).Transform(plain)
	if err != nil {
		t.Fatal(err)
	}
	ys := out.DenormY([]float64{5})
	if ys[0] != 5 {
		t.Fatalf("identity DenormY = %v", ys[0])
	}
}
