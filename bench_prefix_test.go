package coda_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// prefixBenchFolds is the cross-validation width of the prefix-cache
// benchmark search (3 scalers x 3 selectors x 3 estimators x 5 folds).
const prefixBenchFolds = 5

// prefixBenchGraph builds the benchmark's TEG: expensive shared
// transformer stages (robust scaling sorts every column; covariance+PCA
// runs an eigendecomposition) feeding deliberately cheap estimators, so
// the prefix work the cache eliminates dominates each unit's cost.
func prefixBenchGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFeatureScalers(
		preprocess.NewRobustScaler(),
		preprocess.NewStandardScaler(),
		preprocess.NewMinMaxScaler(),
	)
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(12)},
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(6)},
		[]core.Transformer{preprocess.NewSelectKBest(12)},
	)
	g.AddRegressionModels(
		mlmodels.NewLinearRegression(),
		mlmodels.NewRidge(0.1),
		mlmodels.NewRidge(1),
	)
	return g
}

// prefixBenchDataset is wide enough (48 features) that scaler and
// PCA fits move real data.
func prefixBenchDataset(b *testing.B, seed int64) *dataset.Dataset {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{
		Samples: 240, Features: 48, Informative: 12, Noise: 2,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// distinctFoldPrefixPairs counts the distinct (fold, prefix spec) pairs
// the graph's pipelines can request — computed independently of the
// cache so the fits gate below cannot be fooled by its own accounting.
func distinctFoldPrefixPairs(b *testing.B, g *core.Graph, folds int) int64 {
	b.Helper()
	specs := map[string]struct{}{}
	for _, path := range g.Paths() {
		p, err := core.NewPipeline(path)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range p.PrefixSpecs() {
			specs[s] = struct{}{}
		}
	}
	return int64(len(specs) * folds)
}

func runPrefixBenchSearch(b *testing.B, seed int64, disableCache bool) *core.SearchResult {
	b.Helper()
	ds := prefixBenchDataset(b, seed)
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Search(context.Background(), prefixBenchGraph(), ds, core.SearchOptions{
		Splitter:           crossval.KFold{K: prefixBenchFolds, Shuffle: true},
		Scorer:             scorer,
		Seed:               seed,
		DisablePrefixCache: disableCache,
	})
	if err != nil {
		b.Fatal(err)
	}
	if res.Best == nil {
		b.Fatal("no pipeline succeeded")
	}
	return res
}

// BenchmarkPrefixCacheSearch A/Bs the shared-prefix cache on the
// 3x3x3x5-fold search. The cache-on run must produce the same winner as
// the naive run bit for bit, hit the cache at least once, and — absent
// evictions — perform no more prefix fits than there are distinct
// (fold, prefix) pairs. CI runs it with -benchtime=1x, so it is the
// redundant-work gate.
func BenchmarkPrefixCacheSearch(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{
		{"cache-on", false},
		{"cache-off", true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			// The fits gate's expected pair count is derived outside the
			// timed region so the measurement is the search alone.
			want := distinctFoldPrefixPairs(b, prefixBenchGraph(), prefixBenchFolds)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := runPrefixBenchSearch(b, int64(i+1), mode.disable)
				if mode.disable {
					continue
				}
				st := res.Prefix
				if st.Hits == 0 {
					b.Fatalf("prefix cache never hit: %+v", st)
				}
				if st.Evictions == 0 && st.Fits > want {
					b.Fatalf("cached search fitted %d prefixes for only %d distinct (fold,prefix) pairs", st.Fits, want)
				}
				b.ReportMetric(float64(st.Hits)/float64(st.Hits+st.Misses), "hit-rate")
			}
		})
	}
}

// BenchmarkPrefixCacheEquivalence is the bench-shaped twin of the core
// equivalence property: one cache-on and one cache-off search per
// iteration whose winners must agree bit for bit. Kept alongside the
// perf benchmark so a CI bench run also revalidates correctness on the
// exact workload being timed.
func BenchmarkPrefixCacheEquivalence(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		on := runPrefixBenchSearch(b, int64(i+1), false)
		off := runPrefixBenchSearch(b, int64(i+1), true)
		if on.Best.Index != off.Best.Index ||
			math.Float64bits(on.Best.Mean) != math.Float64bits(off.Best.Mean) {
			b.Fatalf("winner diverged: cached #%d %v vs naive #%d %v",
				on.Best.Index, on.Best.Mean, off.Best.Index, off.Best.Mean)
		}
		for u := range on.Units {
			a, c := on.Units[u], off.Units[u]
			if len(a.Scores) != len(c.Scores) {
				b.Fatalf("unit %d fold count diverged", u)
			}
			for f := range a.Scores {
				if math.Float64bits(a.Scores[f]) != math.Float64bits(c.Scores[f]) {
					b.Fatalf("unit %d fold %d score diverged: %v vs %v", u, f, a.Scores[f], c.Scores[f])
				}
			}
		}
	}
}
