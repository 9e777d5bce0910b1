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
func TestCoopGridSharesTreeFits(t *testing.T) {
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 400, Features: 6, Informative: 3, Noise: 3}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := metrics.ScorerByName("rmse")
	for _, c := range []struct {
		parallelism                 int
		noCache                     bool
		presorts, trees, plainTrees int64
	}{
		{1, false, 60, 1800, 90},
		{2, false, 60, 1800, 90},
		{4, false, 60, 1800, 90},
		{2, true, 540, 7200, 180},
	} {
		t.Run(fmt.Sprintf("parallelism=%d,noCache=%v", c.parallelism, c.noCache), func(t *testing.T) {
			sorts0, trees0, plain0 := mlmodels.Counts()
			res, err := core.Search(context.Background(), coopGridGraph(t), ds, core.SearchOptions{
				Splitter: crossval.KFold{K: 5, Shuffle: true},
				Scorer:   rmse,
				ParamGrid: map[string][]float64{
					"randomforest__n_trees":   {10, 20, 30},
					"randomforest__max_depth": {4, 8},
					"decisiontree__max_depth": {3, 5, 8},
				},
				Parallelism:        c.parallelism,
				DisablePrefixCache: c.noCache,
				Seed:               1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Computed != 132 {
				t.Fatalf("%d of 132 units computed", res.Computed)
			}
			sorts, trees, plain := mlmodels.Counts()
			if sorts-sorts0 != c.presorts || trees-trees0 != c.trees || plain-plain0 != c.plainTrees {
				t.Errorf("%d presorts, %d forest trees and %d plain trees, want %d, %d and %d",
					sorts-sorts0, trees-trees0, plain-plain0, c.presorts, c.trees, c.plainTrees)
			}
		})
	}
}

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
