package mlmodels_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// TestCoopGridSharesTreeFits pins how much of a local coop-grid search's
// tree-family work its units share: 12 prefixes x 5 folds of train sets,
// and on each, 2 forest shapes x n_trees 10, 20 and 30 beside 3 tree
// depths. With the prefix cache on, every tree and forest of a (fold,
// prefix) shares one presort, 60 in all, and each forest shape grows its
// 30 trees and each depth its tree once per fold and rank class, however
// many workers run. The four scalers rank every column alike, so the
// prefixes fall into 6 rank classes: 2 under selectkbest or noop, and the
// 4 PCA prefixes, each its own; 6 x 5 x 60 = 1,800 forest trees and
// 6 x 5 x 3 = 90 plain trees. Without the cache every unit fits from
// scratch: 7,200 forest trees, 180 plain trees and 540 presorts.
//
// Split at unit 66 between two searches, as the meet-in-the-middle claim
// window divides the plan between two clients, each search's store answers
// the other half's units as hits. The plan is scaler-major, so each half
// holds two scalers' units and both halves hold the selectkbest and noop
// rank classes: their 2 x 2 x 30 x 5 = 600 forest trees and 2 x 3 x 5 = 30
// plain trees are grown twice, 2,400 and 120 in all.
func TestCoopGridSharesTreeFits(t *testing.T) {
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 400, Features: 6, Informative: 3, Noise: 3}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := metrics.ScorerByName("rmse")
	opts := func(parallelism int, noCache bool, st core.ResultStore) core.SearchOptions {
		return core.SearchOptions{
			Splitter: crossval.KFold{K: 5, Shuffle: true},
			Scorer:   rmse,
			ParamGrid: map[string][]float64{
				"randomforest__n_trees":   {10, 20, 30},
				"randomforest__max_depth": {4, 8},
				"decisiontree__max_depth": {3, 5, 8},
			},
			Parallelism:        parallelism,
			DisablePrefixCache: noCache,
			Seed:               1,
			Store:              st,
		}
	}
	// The units' keys in plan order: a search whose every lookup hits
	// computes nothing and asks for them in one lookup.
	planned := &halfStore{}
	if _, err := core.Search(context.Background(), coopGridGraph(t), ds, opts(1, false, planned)); err != nil {
		t.Fatal(err)
	}
	keys := planned.asked
	if len(keys) != 132 {
		t.Fatalf("%d keys looked up, want 132", len(keys))
	}
	for _, c := range []struct {
		parallelism                 int
		noCache                     bool
		split                       int // 0: one search of every unit
		presorts, trees, plainTrees int64
	}{
		{1, false, 0, 60, 1800, 90},
		{2, false, 0, 60, 1800, 90},
		{4, false, 0, 60, 1800, 90},
		{2, true, 0, 540, 7200, 180},
		{1, false, 66, 60, 2400, 120},
	} {
		name := fmt.Sprintf("parallelism=%d,noCache=%v", c.parallelism, c.noCache)
		if c.split > 0 {
			name += fmt.Sprintf(",split=%d", c.split)
		}
		t.Run(name, func(t *testing.T) {
			sorts0, trees0, plain0 := mlmodels.Counts()
			computed := 0
			if c.split == 0 {
				res, err := core.Search(context.Background(), coopGridGraph(t), ds, opts(c.parallelism, c.noCache, nil))
				if err != nil {
					t.Fatal(err)
				}
				computed = res.Computed
			} else {
				for _, others := range [][]string{keys[c.split:], keys[:c.split]} {
					st := &halfStore{published: map[string]bool{}}
					for _, k := range others {
						st.published[k] = true
					}
					res, err := core.Search(context.Background(), coopGridGraph(t), ds, opts(c.parallelism, c.noCache, st))
					if err != nil {
						t.Fatal(err)
					}
					if res.CacheHits != len(others) {
						t.Fatalf("%d of the other half's %d units hit", res.CacheHits, len(others))
					}
					computed += res.Computed
				}
			}
			if computed != 132 {
				t.Fatalf("%d of 132 units computed", computed)
			}
			sorts, trees, plain := mlmodels.Counts()
			if sorts-sorts0 != c.presorts || trees-trees0 != c.trees || plain-plain0 != c.plainTrees {
				t.Errorf("%d presorts, %d forest trees and %d plain trees, want %d, %d and %d",
					sorts-sorts0, trees-trees0, plain-plain0, c.presorts, c.trees, c.plainTrees)
			}
		})
	}
}

// halfStore is a result store that holds a score for the keys in
// published, or for every key when published is nil, and grants every
// claim. It keeps the keys of its first lookup.
type halfStore struct {
	published map[string]bool
	asked     []string
}

func (s *halfStore) LookupBatch(_ context.Context, keys []string) (map[string]float64, error) {
	if s.asked == nil {
		s.asked = append([]string(nil), keys...)
	}
	out := map[string]float64{}
	for _, k := range keys {
		if s.published == nil || s.published[k] {
			out[k] = 1
		}
	}
	return out, nil
}

func (s *halfStore) ClaimBatch(_ context.Context, keys []string) (map[string]bool, error) {
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		out[k] = true
	}
	return out, nil
}

func (s *halfStore) Publish(context.Context, string, float64, string) error { return nil }
func (s *halfStore) Release(context.Context, string) error                  { return nil }

// coopGridGraph is coda-client's regression graph: 4 scalers x 3 selector
// chains x 4 models.
func coopGridGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
		[]core.Transformer{preprocess.NewSelectKBest(3)},
		[]core.Transformer{preprocess.NewNoOp()},
	)
	g.AddRegressionModels(
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 30),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
		mlmodels.NewLinearRegression(),
	)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}
