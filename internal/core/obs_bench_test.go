package core_test

import (
	"context"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
)

// obsSearch returns a small but real local search (2 scalers x 2 models =
// 4 pipelines over a 120-sample regression set) so per-unit telemetry is
// a measurable fraction of the work. Parallelism is pinned to 1 so
// allocation counts are deterministic.
func obsSearch(tb testing.TB) func() {
	tb.Helper()
	rng := rand.New(rand.NewSource(17))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 120, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	return func() {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
		if _, err := core.Search(context.Background(), g, ds, core.SearchOptions{
			Splitter:    crossval.KFold{K: 3, Shuffle: true},
			Scorer:      scorer,
			Seed:        11,
			Parallelism: 1,
		}); err != nil {
			tb.Fatal(err)
		}
	}
}

func benchSearch(b *testing.B) {
	search := obsSearch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
}

// BenchmarkObsOverhead compares the fully instrumented core.Search hot
// path (metrics + spans) against the same path with tracing alone off
// (trace.SetEnabled) and with all telemetry off (obs.SetEnabled). Diff
// ns/op across the three to price each layer.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("instrumented", func(b *testing.B) {
		benchSearch(b)
	})
	b.Run("untraced", func(b *testing.B) {
		trace.SetEnabled(false)
		defer trace.SetEnabled(true)
		benchSearch(b)
	})
	b.Run("uninstrumented", func(b *testing.B) {
		obs.SetEnabled(false)
		defer obs.SetEnabled(true)
		benchSearch(b)
	})
}

// TestDisabledTracerAllocatesNothing: a search with tracing switched off
// allocates exactly what it does with all telemetry switched off — a
// disabled tracer that allocates is a regression by definition — and the
// spans it records when on are what the difference buys.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	// A collection empties every sync.Pool, and refilling them is
	// allocations that land in whichever measurement is running.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	search := obsSearch(t)
	instrumented := testing.AllocsPerRun(10, search)
	trace.SetEnabled(false)
	untraced := testing.AllocsPerRun(10, search)
	trace.SetEnabled(true)
	obs.SetEnabled(false)
	uninstrumented := testing.AllocsPerRun(10, search)
	obs.SetEnabled(true)
	t.Logf("allocations per search: instrumented %v, untraced %v, uninstrumented %v", instrumented, untraced, uninstrumented)
	if untraced != uninstrumented {
		t.Errorf("a search with tracing off allocates %v, with all telemetry off %v: the disabled tracer allocates", untraced, uninstrumented)
	}
	if instrumented <= untraced {
		t.Errorf("a traced search allocates %v, an untraced one %v: tracing recorded nothing", instrumented, untraced)
	}
}

// raceDetector reports whether this test binary was built with -race. Under
// the detector sync.Pool sheds a quarter of its Puts on purpose, so
// steady-state allocation counts stop being exact.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
