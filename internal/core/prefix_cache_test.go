package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
		// Two PCAs that differ only in n_components: their specs must
		// differ too, or the cache hands one the other's fitted prefix.
		"param-variants": func() *core.Graph {
			g := core.NewGraph()
			g.AddTransformerStage("projection",
				preprocess.NewPCA(2),
				preprocess.NewPCA(3),
			)
			g.AddRegressionModels(mlmodels.NewLinearRegression())
			return g
		},
		// Forests that differ only in n_trees grow onto one sequence of
		// trees, and they and the trees share one presort, on each entry.
		"trees": func() *core.Graph {
			g := core.NewGraph()
			g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
			g.AddRegressionModels(
				mlmodels.NewRandomForest(mlmodels.TreeRegression, 10),
				mlmodels.NewDecisionTree(mlmodels.TreeRegression),
			)
			return g
		},
		// Every scaler ranks a column alike, so under noop or selectkbest
		// each fold's tree and forests grow once for all four scalers and
		// are re-thresholded on each.
		"rank-classes": func() *core.Graph {
			g := core.NewGraph()
			g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewStandardScaler(), preprocess.NewNoOp())
			g.AddFeatureSelectors(
				[]core.Transformer{preprocess.NewNoOp()},
				[]core.Transformer{preprocess.NewSelectKBest(3)},
			)
			g.AddRegressionModels(
				mlmodels.NewDecisionTree(mlmodels.TreeRegression),
				mlmodels.NewRandomForest(mlmodels.TreeRegression, 10),
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
			if name == "imputers" {
				// Every 5th cell is missing, so the mean and median fills differ.
				x := ds.X.Data()
				for i := 0; i < len(x); i += 5 {
					x[i] = math.NaN()
				}
			}
			// A grid key must name a node on some path, so only the graphs
			// with the nodes named get one.
			grid := map[string]map[string][]float64{
				"fig3": {"selectkbest__k": {2, 4}},
				"trees": {
					"randomforest__n_trees":   {10, 5, 15},
					"randomforest__max_depth": {3, 6},
					"decisiontree__max_depth": {2, 4},
				},
				"rank-classes": {
					"randomforest__n_trees":   {8, 4},
					"decisiontree__max_depth": {3, 0},
				},
			}
			opts := core.SearchOptions{
				Splitter:    crossval.KFold{K: 4, Shuffle: true},
				Scorer:      scorer,
				ParamGrid:   grid[name],
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

// TestPrefixCacheStats checks the reuse accounting: every distinct
// (fold, prefix) pair is fitted exactly once and shared prefixes produce
// hits.
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
	if st.Fits != st.DistinctPrefixes {
		t.Fatalf("fits=%d != distinct (fold,prefix) pairs=%d", st.Fits, st.DistinctPrefixes)
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

func (s headerSpy) Name() string                      { return "spy" }
func (s headerSpy) SetParam(string, float64) error    { return nil }
func (s headerSpy) Params() map[string]float64        { return nil }
func (s headerSpy) Clone() core.Transformer           { return s }
func (s headerSpy) Fit(*dataset.Dataset) error        { return nil }
func (s headerSpy) OutShape(in core.Shape) core.Shape { return in }
func (s headerSpy) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen[ds] = true
	return ds, nil
}

type headerSink struct{ headerSpy }

func (s headerSink) Name() string               { return "sink" }
func (s headerSink) Clone() core.Estimator      { return s }
func (s headerSink) FitCost(core.Shape) float64 { return 0 }
func (s headerSink) Predict(ds *dataset.Dataset) ([]float64, error) {
	return make([]float64, ds.NumSamples()), nil
}
func (s headerSink) Fit(ds *dataset.Dataset) error {
	_, err := s.Transform(ds)
	return err
}

// TestPassThroughEntryOwnsItsHeader: a cache entry whose node returns its
// input (NoOp) aliases that input's matrix, never copying it, and the
// estimator is fitted once per fold, never on the full dataset. The entry
// owns a header of its own, though: the copy that carries its memo, so
// what estimator fits derive from it dies with the entry and never lands
// on the fold's dataset, which every prefix starts from.
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
		if folds[got] {
			t.Fatal("the estimator was fitted on a fold's own header, not the entry's")
		}
		aliased := false
		for f := range folds {
			aliased = aliased || f.X == got.X
		}
		if !aliased {
			t.Fatal("a pass-through entry copied the fold's matrix instead of aliasing it")
		}
	}
}

// foldToken is what memoProbe makes in a fold's shared memo. Its pointer
// field keeps it off Go's tiny allocator, which packs pointer-free objects
// under 16 bytes into shared 16-byte blocks: a finalizer on such an object
// does not run while another object of its block lives, so an 8-byte token
// could stay unfinalized long after the search dropped it.
type foldToken struct {
	id int64
	_  *int64
}

// memoProbe is an estimator that makes or reads a foldToken in the memo
// its train set shares, and records the token's id. A token counts itself
// freed when the collector finalizes it.
type memoProbe struct {
	headerSink
	ids         map[int64]int
	made, freed *atomic.Int64
}

func (p memoProbe) Clone() core.Estimator { return p }
func (p memoProbe) Fit(ds *dataset.Dataset) error {
	tok := dataset.SharedMemoized(ds, foldToken{}, func() *foldToken {
		tok := &foldToken{id: p.made.Add(1)}
		runtime.SetFinalizer(tok, func(*foldToken) { p.freed.Add(1) })
		return tok
	})
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ids[tok.id]++
	return nil
}

// TestFoldMemoSharedAndDropped: every entry of a fold shares one memo, so
// the estimators fitted under the four scalers of each fold read one value
// there, and no fold reads another's; the search holds none of them once
// it returns.
func TestFoldMemoSharedAndDropped(t *testing.T) {
	var made, freed atomic.Int64
	probe := memoProbe{headerSink{headerSpy{new(sync.Mutex), nil}}, map[int64]int{}, &made, &freed}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewStandardScaler(), preprocess.NewRobustScaler(), preprocess.NewNoOp())
	g.AddEstimatorStage("model", probe)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	if _, err := core.Search(context.Background(), g, regDS(t, 60), core.SearchOptions{
		Splitter: crossval.KFold{K: 3}, Scorer: scorer, Parallelism: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if made.Load() != 3 || len(probe.ids) != 3 {
		t.Fatalf("%d values made and %d read over 3 folds, want one a fold", made.Load(), len(probe.ids))
	}
	for id, n := range probe.ids {
		if n != 4 {
			t.Errorf("fold value %d read by %d fits, want the 4 scalers'", id, n)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < 3 && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if freed.Load() != 3 {
		t.Errorf("%d of 3 fold values freed after Search returned", freed.Load())
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

// TestPrefixCacheHoldsTheLiveSet: an entry is dropped when the last unit
// that reads it settles, so at Parallelism 1 the cache holds the running
// unit's prefixes and nothing else. A probe estimator reads the byte gauge
// in every fold fit of the Figure 3 graph (4 scalers x 3 selector chains x
// 2 models, K = 3). Each reading must equal the bytes of the running unit's
// prefix entries that exist by then: its own up to the current fold, and
// every fold of a prefix an earlier unit already fitted.
func TestPrefixCacheHoldsTheLiveSet(t *testing.T) {
	var mu sync.Mutex
	var read []float64
	probe := bytesProbe{headerSink{headerSpy{&mu, map[*dataset.Dataset]bool{}}}, &read}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewStandardScaler(), preprocess.NewRobustScaler(), preprocess.NewNoOp())
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
		[]core.Transformer{preprocess.NewSelectKBest(3)},
		[]core.Transformer{preprocess.NewNoOp()},
	)
	g.AddEstimatorStage("model", probe, probe)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	opts := core.SearchOptions{Splitter: crossval.KFold{K: 3, Shuffle: true}, Scorer: scorer, Parallelism: 1, Seed: 5}
	ds := regDS(t, 80)

	// want holds, per fold fit in the order a serial search makes them,
	// the bytes of the running unit's entries, sized by fitting each of its
	// prefixes by hand on each fold.
	splits, err := opts.Splitter.Splits(ds.NumSamples(), rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	must := func(ds *dataset.Dataset, err error) *dataset.Dataset {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	var want []int64
	fitted := map[string]bool{}
	for _, path := range g.Paths() {
		p, err := core.NewPipeline(path)
		if err != nil {
			t.Fatal(err)
		}
		specs := prefixSpecs(p)
		size := make([][]int64, len(specs)) // by depth, then fold
		for d := range size {
			size[d] = make([]int64, len(splits))
		}
		for f, sp := range splits {
			train, test := ds.Subset(sp.Train), ds.Subset(sp.Test)
			for d, node := range path[:len(path)-1] {
				fit := make([]core.Transformer, len(node.Transformers))
				for i, tr := range node.Transformers {
					fit[i] = tr.Clone()
					if err := fit[i].Fit(train); err != nil {
						t.Fatal(err)
					}
					train = must(fit[i].Transform(train))
				}
				for _, tr := range fit {
					test = must(tr.Transform(test))
				}
				size[d][f] = core.DatasetBytes(train) + core.DatasetBytes(test)
			}
		}
		for f := range splits {
			var live int64
			for d, spec := range specs {
				for h := range splits {
					if h <= f || fitted[spec] {
						live += size[d][h]
					}
				}
			}
			want = append(want, live)
		}
		for _, spec := range specs {
			fitted[spec] = true
		}
	}

	start := scrapeSeries(t, "coda_search_prefix_cache_bytes")
	if _, err := core.Search(context.Background(), g, ds, opts); err != nil {
		t.Fatal(err)
	}
	if len(read) != len(want) {
		t.Fatalf("estimator fitted %d times, want %d", len(read), len(want))
	}
	for i, v := range read {
		if got := int64(v - start); got != want[i] {
			t.Errorf("unit %d fold %d: the cache held %d bytes, want the unit's own %d", i/len(splits), i%len(splits), got, want[i])
		}
	}
	if end := scrapeSeries(t, "coda_search_prefix_cache_bytes"); end != start {
		t.Errorf("gauge %v after Search returned, started at %v", end, start)
	}
}

// peerStore is a memBatchStore beside a peer that holds the keys in held
// and publishes their scores when the search flushes, that is before it
// looks up the units it deferred.
type peerStore struct {
	*memBatchStore
	held map[string]float64
}

func (p peerStore) Flush(ctx context.Context) error {
	p.mu.Lock()
	for k, v := range p.held {
		p.scores[k] = v
		delete(p.claimed, k)
	}
	p.mu.Unlock()
	return p.memBatchStore.Flush(ctx)
}

// failingPCA is a PCA whose fit always fails.
type failingPCA struct{ core.Transformer }

func (f failingPCA) Clone() core.Transformer { return failingPCA{f.Transformer.Clone()} }
func (failingPCA) Fit(*dataset.Dataset) error {
	return errors.New("pca eigendecomposition did not converge")
}

// TestPrefixCacheSettleStress drives every way a unit settles through the
// Figure 3 graph over a 480x16 dataset at Parallelism 8 (under -race, the
// singleflight joins and the drops run concurrently): computed; failed, on
// a PCA path whose fit fails; a hit a
// store pre-published; a unit a peer holds, deferred and then a hit; and a
// search cancelled mid-run. Every computed score equals the uncached
// search's bit for bit, each hit carries its mean, the byte gauge is back
// at its start after each search, and a search that computes every unit
// fits each (fold, prefix) pair once.
func TestPrefixCacheSettleStress(t *testing.T) {
	scorer, _ := metrics.ScorerByName("rmse")
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 480, Features: 16, Informative: 6, Noise: 1}, rand.New(rand.NewSource(17)))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.SearchOptions{
		Splitter:    crossval.KFold{K: 5, Shuffle: true},
		Scorer:      scorer,
		Parallelism: 8,
		Seed:        11,
	}
	start := scrapeSeries(t, "coda_search_prefix_cache_bytes")
	search := func(ctx context.Context, g *core.Graph, opts core.SearchOptions) (*core.SearchResult, error) {
		t.Helper()
		res, err := core.Search(ctx, g, ds, opts)
		if end := scrapeSeries(t, "coda_search_prefix_cache_bytes"); end != start {
			t.Errorf("gauge %v after Search returned, started at %v", end, start)
		}
		return res, err
	}

	on, err := search(context.Background(), searchGraphs()["fig3"](), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := on.Prefix; st.Fits != st.DistinctPrefixes || st.Hits == 0 {
		t.Errorf("every unit computed: %+v, want fits == distinct pairs and some hits", st)
	}
	noCache := opts
	noCache.DisablePrefixCache = true
	off, err := search(context.Background(), searchGraphs()["fig3"](), noCache)
	if err != nil {
		t.Fatal(err)
	}
	assertSearchEquivalent(t, on, off)

	// The same units beside a failing PCA path, against a store holding a
	// third of them published and a peer holding another third.
	ref := map[string]core.UnitResult{}
	store := peerStore{newMemBatchStore("me"), map[string]float64{}}
	for i, u := range off.Units {
		ref[u.Spec] = u
		key := core.UnitKey(ds.Fingerprint(), u.Spec, core.EvalSpec(opts))
		switch i % 3 {
		case 0:
			store.scores[key] = u.Mean
		case 1:
			store.claimed[key] = "peer"
			store.held[key] = u.Mean
		}
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewStandardScaler(), preprocess.NewRobustScaler(), preprocess.NewNoOp())
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
		[]core.Transformer{preprocess.NewSelectKBest(3)},
		[]core.Transformer{preprocess.NewNoOp()},
		[]core.Transformer{failingPCA{preprocess.NewPCA(2)}},
	)
	g.AddRegressionModels(mlmodels.NewDecisionTree(mlmodels.TreeRegression), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	withStore := opts
	withStore.Store = store
	res, err := search(context.Background(), g, withStore)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, u := range res.Units {
		want, ok := ref[u.Spec]
		switch {
		case !ok:
			if u.Err == "" {
				t.Errorf("%s: want the failing PCA path to fail", u.Spec)
			}
			failed++
		case u.FromCache:
			if math.Float64bits(u.Mean) != math.Float64bits(want.Mean) {
				t.Errorf("%s: hit mean %v, want %v", u.Spec, u.Mean, want.Mean)
			}
		case u.Err != "":
			t.Errorf("%s failed: %s", u.Spec, u.Err)
		default:
			for f := range want.Scores {
				if math.Float64bits(u.Scores[f]) != math.Float64bits(want.Scores[f]) {
					t.Fatalf("%s fold %d: score %v, uncached %v", u.Spec, f, u.Scores[f], want.Scores[f])
				}
			}
		}
	}
	if want := 2 * len(off.Units) / 3; res.CacheHits != want || failed != 8 || res.Computed != len(off.Units)-want {
		t.Errorf("with a store: %d hits, %d failed, %d computed; want %d, 8, %d", res.CacheHits, failed, res.Computed, want, len(off.Units)-want)
	}
	if st := res.Prefix; st.Fits > st.DistinctPrefixes {
		t.Errorf("with a store: %d fits for %d distinct pairs", st.Fits, st.DistinctPrefixes)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var scored atomic.Int64
	cancelling := opts
	cancelling.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		if scored.Add(1) == 20 {
			cancel()
		}
		return scorer.Fn(y, yhat)
	}
	if _, err := search(ctx, searchGraphs()["fig3"](), cancelling); err == nil {
		t.Fatal("want the cancelled search to fail")
	}
}

// arrowNamed is a pass-through transformer whose name holds the pipeline
// separator.
type arrowNamed struct{ headerSpy }

func (arrowNamed) Name() string { return "a -> b" }

// TestSpecSeparatorInANameFails: a unit's prefixes are cut from its spec
// at " -> ", so a node whose spec holds the separator fails the search
// rather than sharing a wrong prefix.
func TestSpecSeparatorInANameFails(t *testing.T) {
	g := core.NewGraph()
	g.AddTransformerStage("pass", arrowNamed{headerSpy{&sync.Mutex{}, map[*dataset.Dataset]bool{}}})
	g.AddRegressionModels(mlmodels.NewLinearRegression())
	scorer, _ := metrics.ScorerByName("rmse")
	_, err := core.Search(context.Background(), g, regDS(t, 40), core.SearchOptions{Splitter: crossval.KFold{K: 2}, Scorer: scorer})
	if err == nil || !strings.Contains(err.Error(), `"a -> b"`) {
		t.Fatalf("search over a node named %q: err %v, want the name refused", "a -> b", err)
	}
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

// prefixSpecs is the spec of every transformer prefix of p, shallowest
// first: p's spec cut before each " -> " after the first, so the estimator
// is never part of one.
func prefixSpecs(p *core.Pipeline) []string {
	parts := strings.Split(p.Spec(), " -> ")
	var specs []string
	for d := 2; d < len(parts); d++ {
		specs = append(specs, strings.Join(parts[:d], " -> "))
	}
	return specs
}
