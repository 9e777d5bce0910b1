package core_test

import (
	"context"
	"math"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/metrics"
	"coda/internal/nnmodels"
	"coda/internal/preprocess"
	"coda/internal/tswindow"
)

// stressSearch runs a small time-series search whose estimators exercise
// the nn scratch-buffer arenas from 8 evaluation workers at once.
func stressSearch(t *testing.T, seed int64) *core.SearchResult {
	t.Helper()
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler())
	g.AddTransformerStage("windowing", tswindow.NewCascadedWindows(6, 1, 3))
	g.AddEstimatorStage("model",
		nnmodels.NewLSTMRegressor(false),
		nnmodels.NewCNNRegressor(false),
	)
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), g, fusionSeries(60), core.SearchOptions{
		Splitter:    crossval.KFold{K: 2, Shuffle: true},
		Scorer:      scorer,
		ParamGrid:   map[string][]float64{"lstm__epochs": {2}, "cnn__epochs": {2}},
		Parallelism: 8,
		Seed:        seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSearchKernelStressDeterministic drives core.Search at Parallelism 8
// (run under -race in CI to stress the arena scratch buffers), and checks
// the search is bitwise deterministic for a fixed seed regardless of
// scheduling.
func TestSearchKernelStressDeterministic(t *testing.T) {
	a := stressSearch(t, 7)
	b := stressSearch(t, 7)
	if a.Best == nil || b.Best == nil {
		t.Fatalf("search found no best: %+v / %+v", a.Best, b.Best)
	}
	if math.Float64bits(a.Best.Mean) != math.Float64bits(b.Best.Mean) {
		t.Fatalf("best mean not deterministic: %v vs %v", a.Best.Mean, b.Best.Mean)
	}
	if a.Best.Spec != b.Best.Spec {
		t.Fatalf("winner not deterministic: %q vs %q", a.Best.Spec, b.Best.Spec)
	}
	if len(a.Units) != len(b.Units) {
		t.Fatalf("unit counts differ: %d vs %d", len(a.Units), len(b.Units))
	}
	for i := range a.Units {
		ua, ub := a.Units[i], b.Units[i]
		if ua.Err != ub.Err {
			t.Fatalf("unit %d error mismatch: %q vs %q", i, ua.Err, ub.Err)
		}
		if len(ua.Scores) != len(ub.Scores) {
			t.Fatalf("unit %d fold counts differ", i)
		}
		for f := range ua.Scores {
			if math.Float64bits(ua.Scores[f]) != math.Float64bits(ub.Scores[f]) {
				t.Fatalf("unit %d fold %d score not deterministic: %v vs %v",
					i, f, ua.Scores[f], ub.Scores[f])
			}
		}
	}
}
