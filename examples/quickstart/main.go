// Quickstart: build the paper's Figure 3 Transformer-Estimator Graph —
// four feature scalers x three feature selectors x three regression models
// = 36 pipelines — and let the search engine find the best one with 5-fold
// cross-validation.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

func main() {
	// A synthetic regression problem: 6 features, 3 informative.
	rng := rand.New(rand.NewSource(7))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{
		Samples: 300, Features: 6, Informative: 3, Noise: 5,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// The graph from the paper's Listing 1 / Figure 3.
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
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 30),
	)
	fmt.Printf("graph has %d pipelines (paper: 36)\n", g.NumPipelines())

	// Model validation and selection (the paper's Listing 2): 5-fold CV,
	// RMSE scoring, a small parameter grid using node__param naming.
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 5, Shuffle: true},
		Scorer:      scorer,
		ParamGrid:   map[string][]float64{"selectkbest__k": {2, 3, 4}},
		Parallelism: 4,
		Seed:        1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("evaluated %d units (%d pipelines x grid)\n", len(res.Units), g.NumPipelines())
	fmt.Printf("best pipeline: %s\n", res.Best.Spec)
	fmt.Printf("best CV RMSE:  %.4f\n", res.Best.Mean)

	// The search only selects; fitting the winner on the full dataset is
	// the caller's step, and the fitted pipeline is ready to predict.
	best, err := res.FitBest(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	preds, err := best.Predict(ds)
	if err != nil {
		log.Fatal(err)
	}
	r2, err := metrics.R2(ds.Y, preds)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("refit R2 on training data: %.4f\n", r2)
}
