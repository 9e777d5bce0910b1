package core_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/nnmodels"
	"coda/internal/preprocess"
	"coda/internal/tsgraph"
	"coda/internal/tswindow"
)

// fusionSeries builds a deterministic multivariate series with large
// per-column offsets and one constant column, so every scaler's
// degenerate-column case (MinMax's zero span, Standard's zero deviation,
// Robust's zero IQR) is exercised.
func fusionSeries(rows int) *dataset.Dataset {
	rng := rand.New(rand.NewSource(11))
	const cols = 4
	x := matrix.New(rows, cols)
	offsets := []float64{1e6, -350, 0, 42}
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		for j := 0; j < cols; j++ {
			if j == 2 {
				row[j] = 7.25 // constant column
				continue
			}
			row[j] = offsets[j] + 10*math.Sin(float64(i)/3) + rng.NormFloat64()
		}
	}
	return &dataset.Dataset{
		X:        x,
		ColNames: []string{"a", "b", "const", "target"},
	}
}

func bitsEqualSlice(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", label, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d]: %v != %v (bits %x vs %x)",
				label, i, got[i], want[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// manualChain is the oracle the executor is held to: one pipeline driven by
// hand through the public Transformer/Estimator methods only, on fresh
// clones of the path's components — fit and apply each transformer in
// turn, fit the estimator, predict, map predictions and derived truth back
// to original units.
func manualChain(t *testing.T, path core.Path, train, test *dataset.Dataset) (yhat, ytrue []float64) {
	t.Helper()
	for _, n := range path[:len(path)-1] {
		for _, tr := range n.Transformers {
			tr = tr.Clone()
			if err := tr.Fit(train); err != nil {
				t.Fatal(err)
			}
			var err error
			if train, err = tr.Transform(train); err != nil {
				t.Fatal(err)
			}
			if test, err = tr.Transform(test); err != nil {
				t.Fatal(err)
			}
		}
	}
	est := path[len(path)-1].Estimator.Clone()
	if err := est.Fit(train); err != nil {
		t.Fatal(err)
	}
	scaled, err := est.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	return test.DenormY(scaled), test.DenormY(test.Y)
}

// assertPipelineMatchesManualChain fits the path as a core.Pipeline and
// demands bitwise-equal predictions and truths, in original units, to the
// hand-driven chain.
func assertPipelineMatchesManualChain(t *testing.T, path core.Path, train, test *dataset.Dataset) {
	t.Helper()
	p, err := core.NewPipeline(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	gotHat, gotTrue, err := p.PredictWithTruth(test)
	if err != nil {
		t.Fatal(err)
	}
	wantHat, wantTrue := manualChain(t, path, train, test)
	bitsEqualSlice(t, "yhat", gotHat, wantHat)
	bitsEqualSlice(t, "ytrue", gotTrue, wantTrue)
}

// TestPipelineMatchesManualChain runs a full scaler→windower→model pipeline
// against the hand-driven chain.
func TestPipelineMatchesManualChain(t *testing.T) {
	assertPipelineMatchesManualChain(t, core.Path{
		{Name: "scaling", Transformers: []core.Transformer{preprocess.NewMinMaxScaler()}},
		{Name: "window", Transformers: []core.Transformer{tswindow.NewFlatWindowing(4, 1, 3)}},
		{Name: "model", Estimator: mlmodels.NewLinearRegression()},
	}, fusionSeries(80), fusionSeries(40))
}

// TestFusedWindowConvMatchesMaterialized is the same check for every scaler
// × convolutional estimator pair over cascaded windows: several epochs of
// seeded mini-batch training have to follow the hand-driven chain's
// trajectory exactly, not just one forward pass.
func TestFusedWindowConvMatchesMaterialized(t *testing.T) {
	scalers := []core.Transformer{
		preprocess.NewStandardScaler(),
		preprocess.NewMinMaxScaler(),
		preprocess.NewRobustScaler(),
	}
	models := map[string]func() core.Estimator{
		"cnn":       func() core.Estimator { return nnmodels.NewCNNRegressor(false) },
		"wavenet":   func() core.Estimator { return nnmodels.NewWaveNetRegressor() },
		"seriesnet": func() core.Estimator { return nnmodels.NewSeriesNetRegressor() },
	}
	for _, sc := range scalers {
		for mname, mk := range models {
			t.Run(fmt.Sprintf("%s_%s", sc.Name(), mname), func(t *testing.T) {
				est := mk()
				if err := est.SetParam("epochs", 3); err != nil {
					t.Fatal(err)
				}
				if err := est.SetParam("seed", 9); err != nil {
					t.Fatal(err)
				}
				assertPipelineMatchesManualChain(t, core.Path{
					{Name: "scaling", Transformers: []core.Transformer{sc}},
					{Name: "window", Transformers: []core.Transformer{tswindow.NewCascadedWindows(6, 1, 3)}},
					{Name: "model", Estimator: est},
				}, fusionSeries(80), fusionSeries(40))
			})
		}
	}
}

// TestSearchMatchesManualChain is the oracle for a whole search: every fold
// score of every unit of a Slim Figure 11 graph, and the refitted winner's
// predictions on the full series, must equal the hand-driven chain's bit
// for bit — with the prefix cache and without it, serial and parallel.
func TestSearchMatchesManualChain(t *testing.T) {
	series := fusionSeries(120)
	cfg := tsgraph.Config{History: 5, Horizon: 1, Target: 3, Epochs: 2, Seed: 7, Slim: true}
	splitter := crossval.SlidingSplit{K: 2, TrainSize: 60, TestSize: 30, Buffer: 1}
	scorer, _ := metrics.ScorerByName("rmse")

	g, err := tsgraph.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths := g.Paths()
	splits, err := splitter.Splits(series.NumSamples(), rand.New(rand.NewSource(0)))
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, len(paths))
	for i, path := range paths {
		for _, sp := range splits {
			yhat, ytrue := manualChain(t, path, series.Subset(sp.Train), series.Subset(sp.Test))
			score, err := scorer.Fn(ytrue, yhat)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], score)
		}
	}

	for _, noCache := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("nocache=%v_parallelism=%d", noCache, par), func(t *testing.T) {
				res, err := core.Search(context.Background(), g, series, core.SearchOptions{
					Splitter: splitter, Scorer: scorer, Parallelism: par, DisablePrefixCache: noCache,
				})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Units) != len(paths) {
					t.Fatalf("%d units for %d paths", len(res.Units), len(paths))
				}
				for i, u := range res.Units {
					if u.Err != "" {
						t.Fatalf("unit %d (%s) failed: %s", i, u.Spec, u.Err)
					}
					if u.Spec != paths[i].Spec() {
						t.Fatalf("unit %d is %q, path %d is %q", i, u.Spec, i, paths[i].Spec())
					}
					bitsEqualSlice(t, u.Spec, u.Scores, want[i])
				}
				wantHat, _ := manualChain(t, paths[res.Best.Index], series, series)
				gotHat, err := res.BestPipeline.Predict(series)
				if err != nil {
					t.Fatal(err)
				}
				bitsEqualSlice(t, "best pipeline predictions", gotHat, wantHat)
			})
		}
	}
}
