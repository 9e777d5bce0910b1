package core_test

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// pathSpec renders p as the pipeline built from it.
func pathSpec(t *testing.T, p core.Path) string {
	t.Helper()
	pipe, err := core.NewPipeline(p)
	if err != nil {
		t.Fatal(err)
	}
	return pipe.Spec()
}

// fig3Graph builds the paper's Figure 3 working example: 4 scalers x 3
// selectors x 3 regression models = 36 pipelines.
func fig3Graph(t *testing.T) *core.Graph {
	t.Helper()
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
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 10),
	)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

func regDS(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: n, Features: 5, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestFig3GraphHas36Pipelines(t *testing.T) {
	g := fig3Graph(t)
	if n := g.NumPipelines(); n != 36 {
		t.Fatalf("Figure 3 graph has %d pipelines, paper says 36", n)
	}
}

func TestGraphNodeNamingAndUniqueness(t *testing.T) {
	g := fig3Graph(t)
	var names []string
	for _, st := range g.Stages() {
		for _, opt := range st.Options {
			names = append(names, opt.Name)
		}
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate node name %q", n)
		}
		seen[n] = true
	}
	if !seen["covariance+pca"] {
		t.Fatalf("chain node name missing: %v", names)
	}
	// Duplicate components get suffixed names.
	if !seen["noop"] || !seen["noop_2"] {
		t.Fatalf("expected noop and noop_2 in %v", names)
	}
}

func TestGraphBuilderErrors(t *testing.T) {
	g := core.NewGraph()
	g.AddEstimatorStage("m", mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	g.AddTransformerStage("late", preprocess.NewNoOp())
	if err := g.Finalize(); err == nil {
		t.Fatal("want stage-after-estimator error")
	}

	g2 := core.NewGraph()
	g2.AddTransformerStage("s", preprocess.NewNoOp())
	if err := g2.Finalize(); err == nil {
		t.Fatal("want missing-estimator error")
	}

	g3 := core.NewGraph()
	if err := g3.Finalize(); err == nil {
		t.Fatal("want empty-graph error")
	}

	g4 := core.NewGraph()
	g4.AddTransformerStage("s")
	if err := g4.Finalize(); err == nil || !strings.Contains(err.Error(), "has no options") {
		t.Fatal("want no-options error")
	}

	g5 := core.NewGraph()
	g5.AddTransformerStage("s", preprocess.NewNoOp())
	g5.AddEstimatorStage("m", mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	g5.Connect("bogus", "knn")
	if err := g5.Finalize(); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatal("want unknown-node error")
	}
}

func TestConnectRestrictsPaths(t *testing.T) {
	g := core.NewGraph()
	g.AddTransformerStage("scale", preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddEstimatorStage("model",
		mlmodels.NewKNN(mlmodels.KNNRegression, 3),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
	)
	// Unrestricted: 2*2 = 4 paths.
	if n := g.NumPipelines(); n != 4 {
		t.Fatalf("unrestricted paths = %d, want 4", n)
	}
	// Restrict standardscaler to knn only; noop keeps both.
	g.Connect("standardscaler", "knn")
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	paths := g.Paths()
	if len(paths) != 3 {
		t.Fatalf("restricted paths = %d, want 3", len(paths))
	}
	for _, p := range paths {
		if p[0].Name == "standardscaler" && p[1].Name != "knn" {
			t.Fatalf("edge restriction violated: %s", pathSpec(t, p))
		}
	}
}

// TestSearchPlansTheGraphAsBuilt: Search plans from the paths Finalize
// kept, and a Connect or Add*Stage call after Finalize drops them. A
// Connect then narrows the next search's units without another Finalize,
// and one that fails makes the next search fail with its error.
func TestSearchPlansTheGraphAsBuilt(t *testing.T) {
	g := core.NewGraph()
	g.AddTransformerStage("scale", preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddEstimatorStage("model",
		mlmodels.NewKNN(mlmodels.KNNRegression, 3),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
	)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	rmse, _ := metrics.ScorerByName("rmse")
	opts := core.SearchOptions{Splitter: crossval.KFold{K: 2}, Scorer: rmse, Store: allHits{}, Parallelism: 1}
	units := func() (int, error) {
		res, err := core.Search(context.Background(), g, regDS(t, 20), opts)
		if err != nil {
			return 0, err
		}
		return len(res.Units), nil
	}
	if n, err := units(); n != 4 || err != nil {
		t.Fatalf("finalized graph: %d units, err %v; want 4", n, err)
	}
	g.Connect("standardscaler", "knn")
	if n, err := units(); n != 3 || err != nil {
		t.Fatalf("after Connect: %d units, err %v; want 3", n, err)
	}
	g.Connect("standardscaler", "bogus")
	if _, err := units(); err == nil || !strings.Contains(err.Error(), "unknown node") {
		t.Fatalf("after a failed Connect: err %v, want its unknown-node error", err)
	}
}

func TestConnectNonAdjacentFails(t *testing.T) {
	g := core.NewGraph()
	g.AddTransformerStage("a", preprocess.NewStandardScaler())
	g.AddTransformerStage("b", preprocess.NewNoOp())
	g.AddEstimatorStage("m", mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	g.Connect("standardscaler", "knn") // skips a stage
	if err := g.Finalize(); err == nil || !strings.Contains(err.Error(), "not adjacent") {
		t.Fatal("want non-adjacent error")
	}
}

func TestPipelineFitPredictSemantics(t *testing.T) {
	ds := regDS(t, 120)
	g := fig3Graph(t)
	paths := g.Paths()
	// Find the robustscaler -> selectkbest -> decisiontree path (paper's P1).
	var p1 core.Path
	for _, p := range paths {
		if pathSpec(t, p) == "input -> robustscaler -> selectkbest(k=3) -> decisiontree(max_depth=0,min_leaf=1)" {
			p1 = p
		}
	}
	if p1 == nil {
		var specs []string
		for _, p := range paths {
			specs = append(specs, pathSpec(t, p))
		}
		t.Fatalf("P1 path not found in:\n%s", strings.Join(specs, "\n"))
	}
	pipe, err := core.NewPipeline(p1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Predict(ds); err == nil {
		t.Fatal("predict before fit must fail")
	}
	if err := pipe.Fit(ds); err != nil {
		t.Fatal(err)
	}
	preds, err := pipe.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != ds.NumSamples() {
		t.Fatalf("predictions %d, want %d", len(preds), ds.NumSamples())
	}
	yhat, ytrue, err := pipe.PredictWithTruth(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(yhat) != len(ytrue) {
		t.Fatal("PredictWithTruth length mismatch")
	}
	for i := range ytrue {
		if ytrue[i] != ds.Y[i] {
			t.Fatal("tabular transform must not alter targets")
		}
	}
}

// TestPipelineCloneIndependence: NewPipeline clones the path's nodes, so
// two pipelines built from one path share no fitted state.
func TestPipelineCloneIndependence(t *testing.T) {
	ds := regDS(t, 80)
	path := fig3Graph(t).Paths()[0]
	pipe, err := core.NewPipeline(path)
	if err != nil {
		t.Fatal(err)
	}
	other, err := core.NewPipeline(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Predict(ds); err == nil {
		t.Fatal("a pipeline shares fitted state with another built from its path")
	}
}

func TestPipelineSetParam(t *testing.T) {
	g := fig3Graph(t)
	var withPCA core.Path
	for _, p := range g.Paths() {
		if strings.Contains(pathSpec(t, p), "pca") && strings.Contains(pathSpec(t, p), "knn") {
			withPCA = p
			break
		}
	}
	pipe, err := core.NewPipeline(withPCA)
	if err != nil {
		t.Fatal(err)
	}
	if err := pipe.SetParam("covariance+pca__n_components", 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pipe.Spec(), "pca(n_components=2)") {
		t.Fatalf("param not applied: %s", pipe.Spec())
	}
	if err := pipe.SetParam("knn__k", 9); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(pipe.Spec(), "knn(k=9)") {
		t.Fatalf("estimator param not applied: %s", pipe.Spec())
	}
	if err := pipe.SetParam("nosuchnode__x", 1); err == nil {
		t.Fatal("want unknown-node error")
	}
	if err := pipe.SetParam("malformed", 1); err == nil {
		t.Fatal("want malformed-key error")
	}
	if err := pipe.SetParam("knn__bogus", 1); err == nil {
		t.Fatal("want unknown-param error")
	}
}

func TestSearchFindsBestPipeline(t *testing.T) {
	// Linear data: KNN/tree do fine, but with a clean linear signal a
	// linear model wins. Build a small graph where one option is clearly
	// best: LinearRegression vs a constant-ish KNN with k=1 overfitting.
	rng := rand.New(rand.NewSource(21))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 150, Features: 4, Informative: 4, Noise: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(
		mlmodels.NewLinearRegression(),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
	)
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 5, Shuffle: true},
		Scorer:      scorer,
		Parallelism: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 4 {
		t.Fatalf("units %d, want 4", len(res.Units))
	}
	if res.Best == nil || !strings.Contains(res.Best.Spec, "linearregression") {
		t.Fatalf("best = %+v, want linearregression to win on linear data", res.Best)
	}
	best, err := res.FitBest(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	preds, err := best.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := metrics.R2(ds.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Fatalf("refit best pipeline R2 = %v", r2)
	}
	if res.Computed != 4 || res.CacheHits != 0 {
		t.Fatalf("computed=%d cachehits=%d", res.Computed, res.CacheHits)
	}
}

func TestSearchParamGridExpansion(t *testing.T) {
	ds := regDS(t, 100)
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewLinearRegression(),
	)
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter:  crossval.KFold{K: 3, Shuffle: true},
		Scorer:    scorer,
		ParamGrid: map[string][]float64{"knn__k": {1, 3, 7}},
		Seed:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// knn path expands to 3 units; linearregression path (grid key not
	// applicable) contributes 1.
	if len(res.Units) != 4 {
		t.Fatalf("units %d, want 4", len(res.Units))
	}
	ks := map[string]bool{}
	for _, u := range res.Units {
		if _, k, ok := strings.Cut(u.Spec, "knn(k="); ok {
			ks[strings.TrimSuffix(k, ")")] = true
		}
	}
	if !ks["1"] || !ks["3"] || !ks["7"] {
		t.Fatalf("grid values not all evaluated: %v", ks)
	}
}

func TestSearchRecordsPipelineFailures(t *testing.T) {
	// SelectKBest requires a target; feed an unsupervised dataset so every
	// pipeline's estimator fails, but search itself must not error.
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
		t.Fatal("no pipeline should have succeeded")
	}
	if res.Units[0].Err == "" {
		t.Fatal("failure not recorded")
	}
}

func TestSearchValidation(t *testing.T) {
	ds := regDS(t, 60)
	g := fig3Graph(t)
	scorer, _ := metrics.ScorerByName("rmse")
	if _, err := core.Search(context.Background(), g, ds, core.SearchOptions{Scorer: scorer}); err == nil {
		t.Fatal("want missing-splitter error")
	}
	if _, err := core.Search(context.Background(), g, ds, core.SearchOptions{Splitter: crossval.KFold{K: 3}}); err == nil {
		t.Fatal("want missing-scorer error")
	}
}

func TestSearchCancellation(t *testing.T) {
	ds := regDS(t, 80)
	g := fig3Graph(t)
	scorer, _ := metrics.ScorerByName("rmse")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := core.Search(ctx, g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
	}); err == nil {
		t.Fatal("want cancellation error")
	}
}

func TestSearchCooperationAvoidsRedundantWork(t *testing.T) {
	ds := regDS(t, 100)
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
		return g
	}
	scorer, _ := metrics.ScorerByName("rmse")
	store := newMemBatchStore("alice")
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     3,
		Store:    store,
	}
	first, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Computed != 4 || first.CacheHits != 0 {
		t.Fatalf("first run computed=%d cache=%d", first.Computed, first.CacheHits)
	}
	// Second client, same data and eval spec: everything is a cache hit.
	store.clientID = "bob"
	second, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 4 || second.Computed != 0 {
		t.Fatalf("second run computed=%d cache=%d, want all cached", second.Computed, second.CacheHits)
	}
	if second.Best == nil || second.Best.Mean != first.Best.Mean {
		t.Fatal("cached best score differs from computed one")
	}
}

func TestComponentSpecDeterministic(t *testing.T) {
	f := mlmodels.NewRandomForest(mlmodels.TreeRegression, 10)
	a := core.ComponentSpec(f)
	b := core.ComponentSpec(f)
	if a != b {
		t.Fatal("ComponentSpec must be deterministic")
	}
	if !strings.Contains(a, "n_trees=10") {
		t.Fatalf("spec %q missing params", a)
	}
}

// TestClassificationGraphWithF1 exercises the paper's Listing 2 flow for a
// classification task: 10-fold cross-validation scored by f1-score.
func TestClassificationGraphWithF1(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ds, err := dataset.MakeClassification(dataset.ClassificationSpec{
		Samples: 240, Features: 5, Classes: 2, ClusterSep: 3,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddEstimatorStage("classification",
		mlmodels.NewLogisticRegression(),
		mlmodels.NewDecisionTree(mlmodels.TreeClassification),
		mlmodels.NewKNN(mlmodels.KNNClassification, 5),
		mlmodels.NewRandomForest(mlmodels.TreeClassification, 20),
	)
	scorer, err := metrics.ScorerByName("f1-score")
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 10, Shuffle: true}, // Listing 2: k=10
		Scorer:      scorer,
		Parallelism: 4,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 8 {
		t.Fatalf("units %d, want 8", len(res.Units))
	}
	if res.Best == nil || res.Best.Mean < 0.9 {
		t.Fatalf("best f1 = %+v, want > 0.9 on separable blobs", res.Best)
	}
	// f1 is higher-better: the search must maximize.
	for _, u := range res.Units {
		if u.Err == "" && u.Mean > res.Best.Mean {
			t.Fatalf("unit %s (%v) beats declared best (%v)", u.Spec, u.Mean, res.Best.Mean)
		}
	}
}

// Property: with unrestricted connectivity, the number of pipelines is the
// product of per-stage option counts.
func TestPipelineCountProductProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stages := 1 + rng.Intn(3)
		want := 1
		g := core.NewGraph()
		for s := 0; s < stages; s++ {
			n := 1 + rng.Intn(4)
			want *= n
			opts := make([]core.Transformer, n)
			for i := range opts {
				opts[i] = preprocess.NewNoOp()
			}
			g.AddTransformerStage("s", opts...)
		}
		nModels := 1 + rng.Intn(3)
		want *= nModels
		models := make([]core.Estimator, nModels)
		for i := range models {
			models[i] = mlmodels.NewKNN(mlmodels.KNNRegression, 3)
		}
		g.AddEstimatorStage("m", models...)
		if err := g.Finalize(); err != nil {
			return false
		}
		return g.NumPipelines() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestSearchSurvivesStoreOutage pins graceful degradation: when the DARR is
// down, the search computes everything locally and still succeeds.
func TestSearchSurvivesStoreOutage(t *testing.T) {
	ds := regDS(t, 80)
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	scorer, _ := metrics.ScorerByName("rmse")
	down := newMemBatchStore("alice")
	down.failLookupBatch, down.failClaimBatch, down.failPublish = true, true, true
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Store:    down,
	})
	if err != nil {
		t.Fatalf("search must survive a DARR outage: %v", err)
	}
	if res.Computed != 2 || res.Best == nil {
		t.Fatalf("computed=%d best=%v; outage should force local computation", res.Computed, res.Best)
	}
}
