package core_test

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
	"coda/internal/tsgraph"
)

// wrappedT and wrappedE are delegating decorators: same Name and Params as
// the component inside, Clone re-wraps. core can only see them through the
// Transformer/Estimator interfaces, so whatever it does with a wrapped
// graph it does without knowing a single concrete component type. calls,
// when set, tallies the Fit and Transform calls of every clone.
type wrappedT struct {
	core.Transformer
	calls *stepCalls
}

type stepCalls struct{ fits, transforms atomic.Int64 }

func (w wrappedT) Clone() core.Transformer { return wrappedT{w.Transformer.Clone(), w.calls} }

func (w wrappedT) Fit(ds *dataset.Dataset) error {
	if w.calls != nil {
		w.calls.fits.Add(1)
	}
	return w.Transformer.Fit(ds)
}

func (w wrappedT) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if w.calls != nil {
		w.calls.transforms.Add(1)
	}
	return w.Transformer.Transform(ds)
}

type wrappedE struct{ core.Estimator }

func (w wrappedE) Clone() core.Estimator { return wrappedE{w.Estimator.Clone()} }

// wrapGraph decorates every component of g in place.
func wrapGraph(g *core.Graph, calls *stepCalls) *core.Graph {
	for _, st := range g.Stages() {
		for _, n := range st.Options {
			for i, tr := range n.Transformers {
				n.Transformers[i] = wrappedT{tr, calls}
			}
			if n.Estimator != nil {
				n.Estimator = wrappedE{n.Estimator}
			}
		}
	}
	return g
}

// TestEachPrefixFittedOnce counts the transformer calls a search makes.
// During cross-validation the cache fits each distinct (fold, prefix) once
// and applies it twice (train, test); without the cache every unit x fold
// does so for itself. Search stops there; FitBest then makes exactly one Fit
// and one Transform per transformer of the winner and nothing else.
func TestEachPrefixFittedOnce(t *testing.T) {
	const folds = 3
	build := func(calls *stepCalls) *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler())
		g.AddFeatureSelectors(
			[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
			[]core.Transformer{preprocess.NewNoOp()},
		)
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3))
		return wrapGraph(g, calls)
	}
	// 2 scaler prefixes of one transformer, then under each a chain of two
	// and a single one: 2*(1+2+1) = 8 transformers over 6 distinct prefixes.
	const distinctPrefixes, transformersInPrefixes = 6 * folds, 8 * folds
	// Every one of the 8 units walks scaler + selector itself: 4 with the
	// two-transformer chain (3 steps), 4 with the single one (2 steps).
	const transformersInUnits = (4*3 + 4*2) * folds
	scorer, _ := metrics.ScorerByName("rmse")
	ds := regDS(t, 90)

	for _, tc := range []struct {
		name    string
		noCache bool
		cvFits  int64
	}{
		{"cached", false, transformersInPrefixes},
		{"uncached", true, transformersInUnits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			calls := &stepCalls{}
			res, err := core.Search(context.Background(), build(calls), ds, core.SearchOptions{
				Splitter: crossval.KFold{K: folds}, Scorer: scorer, Parallelism: 4, DisablePrefixCache: tc.noCache,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := calls.fits.Swap(0); got != tc.cvFits {
				t.Errorf("%d Fit calls in cross-validation, want %d", got, tc.cvFits)
			}
			if got := calls.transforms.Swap(0); got != 2*tc.cvFits {
				t.Errorf("%d Transform calls in cross-validation, want %d", got, 2*tc.cvFits)
			}
			best, err := res.FitBest(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			var winner int64
			for _, n := range best.Nodes {
				winner += int64(len(n.Transformers))
			}
			if got := calls.fits.Load(); got != winner {
				t.Errorf("%d Fit calls in FitBest, want %d", got, winner)
			}
			if got := calls.transforms.Load(); got != winner {
				t.Errorf("%d Transform calls in FitBest, want %d", got, winner)
			}
			if tc.noCache {
				if res.Prefix != (core.PrefixCacheStats{}) {
					t.Errorf("prefix stats without a cache: %+v", res.Prefix)
				}
				return
			}
			if res.Prefix.Fits != distinctPrefixes || res.Prefix.DistinctPrefixes != distinctPrefixes {
				t.Errorf("Prefix.Fits = %d, DistinctPrefixes = %d, want %d each", res.Prefix.Fits, res.Prefix.DistinctPrefixes, distinctPrefixes)
			}
		})
	}
}

// TestDecoratedComponentsAreTransparent searches the Figure 3 graph and the
// Slim Figure 11 graph plain and with every component behind a decorator:
// no score bit, no Best, no prediction of the winner FitBest fits and no
// prefix-cache counter may move, because core has one way through a
// pipeline and it goes through the interfaces.
func TestDecoratedComponentsAreTransparent(t *testing.T) {
	scorer, _ := metrics.ScorerByName("rmse")
	tsGraph := func(t *testing.T) *core.Graph {
		g, err := tsgraph.New(tsgraph.Config{History: 5, Horizon: 1, Target: 3, Epochs: 2, Seed: 7, Slim: true})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		graph func(*testing.T) *core.Graph
		ds    *dataset.Dataset
		split crossval.Splitter
	}{
		{"fig3", fig3Graph, regDS(t, 90), crossval.KFold{K: 3, Shuffle: true}},
		{"fig11-slim", tsGraph, fusionSeries(120), crossval.SlidingSplit{K: 2, TrainSize: 60, TestSize: 30, Buffer: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.SearchOptions{Splitter: tc.split, Scorer: scorer, Parallelism: 2, Seed: 5}
			plain, err := core.Search(context.Background(), tc.graph(t), tc.ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := core.Search(context.Background(), wrapGraph(tc.graph(t), nil), tc.ds, opts)
			if err != nil {
				t.Fatal(err)
			}
			assertSearchEquivalent(t, plain, wrapped)
			if plain.Prefix != wrapped.Prefix {
				t.Errorf("prefix stats moved: plain %+v, wrapped %+v", plain.Prefix, wrapped.Prefix)
			}
			predict := func(res *core.SearchResult) []float64 {
				t.Helper()
				best, err := res.FitBest(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				yhat, err := best.Predict(tc.ds)
				if err != nil {
					t.Fatal(err)
				}
				return yhat
			}
			want, got := predict(plain), predict(wrapped)
			bitsEqualSlice(t, "best pipeline predictions", got, want)
		})
	}
}

// TestFoldSpanReportsPrefixHitsAndMisses: in a traced two-unit search
// sharing one scaler, the first unit's fold spans fitted the shared level
// (prefix_misses 1) and the second's were served it (prefix_hits 1,
// prefix_misses 0); the span totals are the search's cache counters.
func TestFoldSpanReportsPrefixHitsAndMisses(t *testing.T) {
	rec := trace.NewRecorder(4)
	prev := trace.SetDefaultRecorder(rec)
	defer trace.SetDefaultRecorder(prev)

	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	scorer, _ := metrics.ScorerByName("rmse")
	// Parallelism 1: unit 0 has finished before unit 1 starts.
	res, err := core.Search(context.Background(), g, regDS(t, 60), core.SearchOptions{
		Splitter: crossval.KFold{K: 3}, Scorer: scorer, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	traces := rec.Traces()
	if len(traces) != 1 || traces[0].Root.Name != "search" {
		t.Fatalf("recorder holds %d traces, want the one search", len(traces))
	}
	attr := func(sp trace.SpanData, key string) int {
		for _, a := range sp.Attrs {
			if a.Key == key {
				n, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatalf("span %s: %s = %q", sp.Name, key, a.Value)
				}
				return n
			}
		}
		t.Fatalf("span %s has no %s attribute: %v", sp.Name, key, sp.Attrs)
		return 0
	}
	unitOf := map[trace.SpanID]int{}
	for _, sp := range traces[0].Spans {
		if sp.Name == "search.unit" {
			unitOf[sp.ID] = attr(sp, "unit")
		}
	}
	var hits, misses, foldSpans int64
	for _, sp := range traces[0].Spans {
		if sp.Name != "search.fold_fit" {
			continue
		}
		foldSpans++
		h, m := attr(sp, "prefix_hits"), attr(sp, "prefix_misses")
		hits, misses = hits+int64(h), misses+int64(m)
		unit, ok := unitOf[sp.Parent]
		if !ok {
			t.Fatalf("fold span's parent is not a unit span")
		}
		if unit == 0 && (h != 0 || m != 1) {
			t.Errorf("unit 0 fitted the scaler, its span says hits=%d misses=%d", h, m)
		}
		if unit == 1 && (h != 1 || m != 0) {
			t.Errorf("unit 1 was served the scaler, its span says hits=%d misses=%d", h, m)
		}
	}
	if foldSpans != 6 {
		t.Fatalf("%d fold spans, want 2 units x 3 folds", foldSpans)
	}
	if hits != res.Prefix.Hits || misses != res.Prefix.Misses {
		t.Errorf("spans total hits=%d misses=%d, search reports %+v", hits, misses, res.Prefix)
	}
}
