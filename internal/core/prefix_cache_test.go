package core_test

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/preprocess"
)

// searchGraphs enumerates the graph shapes the equivalence property runs
// over, including a duplicate-spec graph (the same component registered
// twice produces differently-named nodes with identical specs — prefix
// entries and DARR keys must still resolve correctly).
func searchGraphs() map[string]func() *core.Graph {
	return map[string]func() *core.Graph{
		"fig3": func() *core.Graph {
			g := core.NewGraph()
			g.AddFeatureScalers(
				preprocess.NewMinMaxScaler(),
				preprocess.NewStandardScaler(),
				preprocess.NewRobustScaler(),
				preprocess.NewNoOp(),
			)
			g.AddFeatureSelectors(
				[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
				[]core.Transformer{preprocess.NewSelectKBest(3)},
				[]core.Transformer{preprocess.NewNoOp()},
			)
			g.AddRegressionModels(
				mlmodels.NewDecisionTree(mlmodels.TreeRegression),
				mlmodels.NewKNN(mlmodels.KNNRegression, 5),
			)
			return g
		},
		"duplicate-specs": func() *core.Graph {
			g := core.NewGraph()
			g.AddFeatureScalers(
				preprocess.NewStandardScaler(),
				preprocess.NewStandardScaler(), // registers as standardscaler_2, same spec
			)
			g.AddRegressionModels(
				mlmodels.NewLinearRegression(),
				mlmodels.NewLinearRegression(),
			)
			return g
		},
		"single-stage": func() *core.Graph {
			g := core.NewGraph()
			g.AddRegressionModels(
				mlmodels.NewLinearRegression(),
				mlmodels.NewKNN(mlmodels.KNNRegression, 3),
			)
			return g
		},
		"with-failures": func() *core.Graph {
			g := core.NewGraph()
			g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
			// PCA demanding more components than features fails on every
			// path through it; the noop paths succeed.
			g.AddFeatureSelectors(
				[]core.Transformer{preprocess.NewPCA(99)},
				[]core.Transformer{preprocess.NewNoOp()},
			)
			g.AddRegressionModels(mlmodels.NewLinearRegression())
			return g
		},
	}
}

// runBoth executes the same search with the prefix cache on and off and
// returns both results.
func runBoth(t *testing.T, build func() *core.Graph, ds *dataset.Dataset, opts core.SearchOptions) (on, off *core.SearchResult) {
	t.Helper()
	opts.DisablePrefixCache = false
	on, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.DisablePrefixCache = true
	off, err = core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	return on, off
}

// assertSearchEquivalent requires the cached and naive searches to be
// bit-identical where it matters: unit specs, failure status, per-fold
// scores, means, and the winning unit.
func assertSearchEquivalent(t *testing.T, on, off *core.SearchResult) {
	t.Helper()
	if len(on.Units) != len(off.Units) {
		t.Fatalf("unit count: cache-on %d, cache-off %d", len(on.Units), len(off.Units))
	}
	for i := range on.Units {
		a, b := on.Units[i], off.Units[i]
		if a.Spec != b.Spec {
			t.Fatalf("unit %d spec diverged:\n  on : %s\n  off: %s", i, a.Spec, b.Spec)
		}
		if (a.Err == "") != (b.Err == "") {
			t.Fatalf("unit %d (%s) failure status diverged: on=%q off=%q", i, a.Spec, a.Err, b.Err)
		}
		if a.Err != "" {
			continue
		}
		if len(a.Scores) != len(b.Scores) {
			t.Fatalf("unit %d fold count: on=%d off=%d", i, len(a.Scores), len(b.Scores))
		}
		for f := range a.Scores {
			if math.Float64bits(a.Scores[f]) != math.Float64bits(b.Scores[f]) {
				t.Fatalf("unit %d fold %d score not bit-identical: on=%v off=%v", i, f, a.Scores[f], b.Scores[f])
			}
		}
		if math.Float64bits(a.Mean) != math.Float64bits(b.Mean) {
			t.Fatalf("unit %d mean not bit-identical: on=%v off=%v", i, a.Mean, b.Mean)
		}
	}
	switch {
	case (on.Best == nil) != (off.Best == nil):
		t.Fatalf("best presence diverged: on=%v off=%v", on.Best, off.Best)
	case on.Best != nil:
		if on.Best.Index != off.Best.Index || math.Float64bits(on.Best.Mean) != math.Float64bits(off.Best.Mean) {
			t.Fatalf("best diverged: on=#%d %v, off=#%d %v",
				on.Best.Index, on.Best.Mean, off.Best.Index, off.Best.Mean)
		}
	}
}

// TestPrefixCacheEquivalence is the cache-on vs cache-off property over
// seeds and graph shapes: identical Best, per-unit scores, and DARR
// publishes.
func TestPrefixCacheEquivalence(t *testing.T) {
	scorer, _ := metrics.ScorerByName("rmse")
	for name, build := range searchGraphs() {
		for _, seed := range []int64{1, 7, 42} {
			rng := rand.New(rand.NewSource(seed))
			ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{
				Samples: 90, Features: 6, Informative: 3, Noise: 2,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			// A grid key must name a node on some path, so only the graph
			// with a selectkbest node gets one.
			var grid map[string][]float64
			if name == "fig3" {
				grid = map[string][]float64{"selectkbest__k": {2, 4}}
			}
			opts := core.SearchOptions{
				Splitter:    crossval.KFold{K: 4, Shuffle: true},
				Scorer:      scorer,
				ParamGrid:   grid,
				Parallelism: 4,
				Seed:        seed,
			}
			on, off := runBoth(t, build, ds, opts)
			assertSearchEquivalent(t, on, off)

			// DARR publishes must match bit for bit: same keys, same
			// scores. Which duplicate-spec unit borrows a published score
			// vs computes it is timing-dependent under parallel workers,
			// so this pass pins Parallelism to 1.
			storeOn, storeOff := newMemBatchStore("on"), newMemBatchStore("off")
			opts.Parallelism = 1
			opts.DisablePrefixCache = false
			opts.Store = storeOn
			on, err = core.Search(context.Background(), build(), ds, opts)
			if err != nil {
				t.Fatalf("%s seed %d cache-on: %v", name, seed, err)
			}
			opts.Store = storeOff
			opts.DisablePrefixCache = true
			off, err = core.Search(context.Background(), build(), ds, opts)
			if err != nil {
				t.Fatalf("%s seed %d cache-off: %v", name, seed, err)
			}
			assertSearchEquivalent(t, on, off)
			pubOn, pubOff := storeOn.snapshotScores(), storeOff.snapshotScores()
			if len(pubOn) != len(pubOff) {
				t.Fatalf("%s seed %d: %d publishes cached vs %d naive",
					name, seed, len(pubOn), len(pubOff))
			}
			for k, v := range pubOn {
				w, ok := pubOff[k]
				if !ok {
					t.Fatalf("%s seed %d: key published only with cache: %s", name, seed, k)
				}
				if math.Float64bits(v) != math.Float64bits(w) {
					t.Fatalf("%s seed %d: published score diverged for %s: %v vs %v", name, seed, k, v, w)
				}
			}
		}
	}
}

// TestPrefixCacheStats checks the reuse accounting: with ample capacity
// every distinct (fold, prefix) pair is fitted exactly once and shared
// prefixes produce hits.
func TestPrefixCacheStats(t *testing.T) {
	scorer, _ := metrics.ScorerByName("rmse")
	ds := regDS(t, 80)
	res, err := core.Search(context.Background(), fig3Graph(t), ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 3, Shuffle: true},
		Scorer:      scorer,
		Parallelism: 4,
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Prefix
	if st.Folds != 3 {
		t.Fatalf("folds = %d, want 3", st.Folds)
	}
	if st.Hits == 0 {
		t.Fatal("shared prefixes produced zero cache hits")
	}
	if st.Evictions != 0 {
		t.Fatalf("default capacity evicted %d entries on a tiny dataset", st.Evictions)
	}
	if st.Fits != st.DistinctPrefixes {
		t.Fatalf("fits=%d != distinct (fold,prefix) pairs=%d without evictions", st.Fits, st.DistinctPrefixes)
	}
	// Figure 3 graph: 4 level-1 prefixes + 4x3 level-2 prefixes = 16
	// distinct prefixes per fold.
	if want := int64(3 * 16); st.DistinctPrefixes != want {
		t.Fatalf("distinct pairs = %d, want %d", st.DistinctPrefixes, want)
	}
	disabled, err := core.Search(context.Background(), fig3Graph(t), ds, core.SearchOptions{
		Splitter:           crossval.KFold{K: 3, Shuffle: true},
		Scorer:             scorer,
		Seed:               5,
		DisablePrefixCache: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if disabled.Prefix != (core.PrefixCacheStats{}) {
		t.Fatalf("disabled cache reported stats: %+v", disabled.Prefix)
	}
}

// headerSpy is a pass-through transformer that records every dataset it is
// handed; headerSink is an estimator that records what it is fitted on.
type headerSpy struct {
	mu   *sync.Mutex
	seen map[*dataset.Dataset]bool
}

func (s headerSpy) Name() string                   { return "spy" }
func (s headerSpy) SetParam(string, float64) error { return nil }
func (s headerSpy) Params() map[string]float64     { return nil }
func (s headerSpy) Clone() core.Transformer        { return s }
func (s headerSpy) Fit(*dataset.Dataset) error     { return nil }
func (s headerSpy) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[ds] = true
	return ds, nil
}

type headerSink struct{ headerSpy }

func (s headerSink) Name() string          { return "sink" }
func (s headerSink) Clone() core.Estimator { return s }
func (s headerSink) Predict(ds *dataset.Dataset) ([]float64, error) {
	return make([]float64, ds.NumSamples()), nil
}
func (s headerSink) Fit(ds *dataset.Dataset) error {
	_, err := s.Transform(ds)
	return err
}

// TestPassThroughEntryOwnsItsHeader: a cache entry whose node returns its
// input (NoOp) is that input — the fold's dataset, its matrix aliased,
// never copied — and the estimator is fitted once per fold, never on the
// full dataset. Nothing writes into a cached dataset, so the entry needs no
// header of its own.
func TestPassThroughEntryOwnsItsHeader(t *testing.T) {
	var mu sync.Mutex
	folds, fitted := map[*dataset.Dataset]bool{}, map[*dataset.Dataset]bool{}
	g := core.NewGraph()
	g.AddTransformerStage("pass", headerSpy{&mu, folds})
	g.AddEstimatorStage("model", headerSink{headerSpy{&mu, fitted}})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	full := regDS(t, 40)
	if _, err := core.Search(context.Background(), g, full, core.SearchOptions{
		Splitter: crossval.KFold{K: 2}, Scorer: scorer, Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if fitted[full] {
		t.Fatal("the search fitted the estimator on the full dataset")
	}
	if len(fitted) != 2 {
		t.Fatalf("estimator fitted on %d fold datasets, want one per fold", len(fitted))
	}
	for got := range fitted {
		aliased := false
		for f := range folds {
			aliased = aliased || f.X == got.X
		}
		if !aliased {
			t.Fatal("a pass-through entry copied the fold's matrix instead of aliasing it")
		}
	}
}

// bytesProbe is an estimator that reads the prefix-cache byte gauge each
// time it is fitted, while the search holds the entry it is fitted on.
type bytesProbe struct {
	headerSink
	read *[]float64
}

func (p bytesProbe) Clone() core.Estimator { return p }
func (p bytesProbe) Fit(*dataset.Dataset) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	*p.read = append(*p.read, obs.GetGauge("coda_search_prefix_cache_bytes").Value())
	return nil
}

// TestPrefixCacheBytesGauge: coda_search_prefix_cache_bytes counts the
// datasets a cached search holds — above its starting value whenever an
// estimator is fitted on a cached entry — and is back at that value once
// Search returns.
func TestPrefixCacheBytesGauge(t *testing.T) {
	var mu sync.Mutex
	var read []float64
	g := core.NewGraph()
	g.AddTransformerStage("pass", headerSpy{&mu, map[*dataset.Dataset]bool{}})
	g.AddEstimatorStage("model", bytesProbe{headerSink{headerSpy{&mu, map[*dataset.Dataset]bool{}}}, &read})
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	start := scrapeSeries(t, "coda_search_prefix_cache_bytes")
	if _, err := core.Search(context.Background(), g, regDS(t, 40), core.SearchOptions{
		Splitter: crossval.KFold{K: 2}, Scorer: scorer, Parallelism: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if len(read) != 2 {
		t.Fatalf("estimator fitted %d times, want once per fold", len(read))
	}
	for i, v := range read {
		if v <= start {
			t.Errorf("fit %d: gauge %v while the search held cached entries, started at %v", i, v, start)
		}
	}
	if end := scrapeSeries(t, "coda_search_prefix_cache_bytes"); end != start {
		t.Errorf("gauge %v after Search returned, started at %v", end, start)
	}
}

// TestPrefixCacheEvictionStress forces constant evictions with the
// smallest cap the option can express, 1 MiB, under a working set several
// times that (the Figure 3 graph's 80 (fold, prefix) entries, the 40
// full-width ones ~62 KB each) at Parallelism=8; results must still match
// the naive path exactly. Run under -race this also exercises the
// singleflight and LRU paths concurrently.
func TestPrefixCacheEvictionStress(t *testing.T) {
	scorer, _ := metrics.ScorerByName("rmse")
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 480, Features: 16, Informative: 6, Noise: 1}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SearchOptions{
		Splitter:      crossval.KFold{K: 5, Shuffle: true},
		Scorer:        scorer,
		Parallelism:   8,
		Seed:          11,
		PrefixCacheMB: 1,
	}
	on, err := core.Search(context.Background(), searchGraphs()["fig3"](), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if on.Prefix.Evictions == 0 {
		t.Fatalf("tiny cap produced no evictions: %+v", on.Prefix)
	}
	opts.DisablePrefixCache = true
	off, err := core.Search(context.Background(), searchGraphs()["fig3"](), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSearchEquivalent(t, on, off)
}

// TestFailedUnitsStayInLatencyHistogram locks in the fix for failed units
// vanishing from coda_search_unit_seconds: a search whose pipelines all
// fail must grow the error-labeled series.
func TestFailedUnitsStayInLatencyHistogram(t *testing.T) {
	before := scrapeSeries(t, `coda_search_unit_seconds_count{outcome="error"}`)
	ds := regDS(t, 60)
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewARModel(50, 0)) // order too large for folds
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatal("expected every unit to fail")
	}
	after := scrapeSeries(t, `coda_search_unit_seconds_count{outcome="error"}`)
	if after <= before {
		t.Fatalf("error-labeled unit latency did not grow: before=%v after=%v", before, after)
	}
}

// scrapeSeries reads one series value from the default obs registry's
// Prometheus rendering.
func scrapeSeries(t *testing.T, series string) float64 {
	t.Helper()
	var sb strings.Builder
	obs.WritePrometheus(&sb)
	for _, line := range strings.Split(sb.String(), "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	return 0
}
