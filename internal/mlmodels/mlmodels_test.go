package mlmodels

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/sim"
	"coda/internal/tswindow"
)

var (
	_ core.Estimator = (*LinearRegression)(nil)
	_ core.Estimator = (*DecisionTree)(nil)
	_ core.Estimator = (*RandomForest)(nil)
	_ core.Estimator = (*KNN)(nil)
	_ core.Estimator = (*KMeans)(nil)
	_ core.Estimator = (*LogisticRegression)(nil)
	_ core.Estimator = (*ZeroModel)(nil)
	_ core.Estimator = (*ARModel)(nil)
)

// trainTestSplit shuffles ds with rng and cuts it into a train set holding
// frac of the rows and a test set holding the rest.
func trainTestSplit(ds *dataset.Dataset, frac float64, rng *rand.Rand) (train, test *dataset.Dataset) {
	idx := rng.Perm(ds.NumSamples())
	cut := int(float64(len(idx)) * frac)
	return ds.Subset(idx[:cut]), ds.Subset(idx[cut:])
}

func regData(t *testing.T, seed int64, n int) (*dataset.Dataset, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, coef, err := dataset.MakeRegression(dataset.RegressionSpec{
		Samples: n, Features: 4, Informative: 3, Noise: 0.5,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, coef
}

func clfData(t *testing.T, seed int64, n, classes int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ds, err := dataset.MakeClassification(dataset.ClassificationSpec{
		Samples: n, Features: 4, Classes: classes, ClusterSep: 4,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestLinearRegressionRecoversCoefficients(t *testing.T) {
	ds, coef := regData(t, 1, 400)
	lr := NewLinearRegression()
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	got, intercept, err := lr.Coefficients()
	if err != nil {
		t.Fatal(err)
	}
	for j := range coef {
		if math.Abs(got[j]-coef[j]) > 0.2 {
			t.Fatalf("coef %d: %v vs truth %v", j, got[j], coef[j])
		}
	}
	if math.Abs(intercept) > 0.2 {
		t.Fatalf("intercept %v, want ~0", intercept)
	}
	preds, err := lr.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := metrics.R2(ds.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Fatalf("train R2 = %v", r2)
	}
}

func TestRidgeShrinksCoefficients(t *testing.T) {
	ds, _ := regData(t, 2, 100)
	ols := NewLinearRegression()
	ridge := &LinearRegression{Alpha: 1000}
	if err := ols.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if err := ridge.Fit(ds); err != nil {
		t.Fatal(err)
	}
	co, _, _ := ols.Coefficients()
	cr, _, _ := ridge.Coefficients()
	var no, nr float64
	for j := range co {
		no += co[j] * co[j]
		nr += cr[j] * cr[j]
	}
	if nr >= no {
		t.Fatalf("ridge norm %v not smaller than OLS norm %v", nr, no)
	}
}

func TestLinearRegressionErrors(t *testing.T) {
	x := matrix.New(2, 4)
	ds, _ := dataset.New(x, []float64{1, 2})
	if err := NewLinearRegression().Fit(ds); err == nil {
		t.Fatal("want too-few-samples error")
	}
	ds2, _ := dataset.New(x, nil)
	if err := NewLinearRegression().Fit(ds2); err == nil {
		t.Fatal("want missing-target error")
	}
	lr := NewLinearRegression()
	if _, err := lr.Predict(ds); err == nil {
		t.Fatal("want not-fitted error")
	}
}

func TestDecisionTreeRegressionFitsSteps(t *testing.T) {
	// Step function: x<0 -> 1, x>=0 -> 5. A depth-1 tree nails it.
	rows := make([][]float64, 40)
	y := make([]float64, 40)
	for i := range rows {
		v := float64(i-20) / 10
		rows[i] = []float64{v}
		if v < 0 {
			y[i] = 1
		} else {
			y[i] = 5
		}
	}
	x, _ := matrix.NewFromRows(rows)
	ds, _ := dataset.New(x, y)
	tree := NewDecisionTree(TreeRegression)
	tree.MaxDepth = 2
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	preds, err := tree.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range preds {
		if math.Abs(preds[i]-y[i]) > 1e-9 {
			t.Fatalf("tree missed step at %d: %v vs %v", i, preds[i], y[i])
		}
	}
	if depthOf(tree.root) < 1 {
		t.Fatal("tree should have split at least once")
	}
}

func TestDecisionTreeMaxDepthLimits(t *testing.T) {
	ds, _ := regData(t, 3, 200)
	tree := NewDecisionTree(TreeRegression)
	tree.MaxDepth = 3
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	if d := depthOf(tree.root); d > 3 {
		t.Fatalf("depth %d exceeds cap 3", d)
	}
}

func TestDecisionTreeClassification(t *testing.T) {
	ds := clfData(t, 4, 150, 3)
	tree := NewDecisionTree(TreeClassification)
	if err := tree.Fit(ds); err != nil {
		t.Fatal(err)
	}
	preds, err := tree.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := metrics.Accuracy(ds.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.95 {
		t.Fatalf("train accuracy %v too low", acc)
	}
}

func TestRandomForestBeatsSingleTreeOutOfSample(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	train, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 4, Noise: 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tr, te := trainTestSplit(train, 0.7, rng)
	tree := NewDecisionTree(TreeRegression)
	if err := tree.Fit(tr); err != nil {
		t.Fatal(err)
	}
	forest := NewRandomForest(TreeRegression, 40)
	forest.Seed = 1
	if err := forest.Fit(tr); err != nil {
		t.Fatal(err)
	}
	tp, err := tree.Predict(te)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := forest.Predict(te)
	if err != nil {
		t.Fatal(err)
	}
	treeRMSE, _ := metrics.RMSE(te.Y, tp)
	forestRMSE, _ := metrics.RMSE(te.Y, fp)
	if forestRMSE >= treeRMSE {
		t.Fatalf("forest RMSE %v not better than single tree %v", forestRMSE, treeRMSE)
	}
}

func TestRandomForestClassification(t *testing.T) {
	ds := clfData(t, 6, 200, 2)
	rng := rand.New(rand.NewSource(6))
	tr, te := trainTestSplit(ds, 0.7, rng)
	f := NewRandomForest(TreeClassification, 30)
	if err := f.Fit(tr); err != nil {
		t.Fatal(err)
	}
	preds, err := f.Predict(te)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := metrics.Accuracy(te.Y, preds)
	if acc < 0.85 {
		t.Fatalf("forest accuracy %v", acc)
	}
}

// TestRandomForestPredictProba: a classification forest's score is the
// share of its trees that vote 1, so it ranks rows, and Predict's majority
// vote agrees with it: 1 where the share is over 1/2, 0 where it is under.
// A regression forest has no class probabilities.
func TestRandomForestPredictProba(t *testing.T) {
	ds := clfData(t, 6, 200, 2)
	rng := rand.New(rand.NewSource(6))
	tr, te := trainTestSplit(ds, 0.7, rng)
	f := NewRandomForest(TreeClassification, 31)
	if err := f.Fit(tr); err != nil {
		t.Fatal(err)
	}
	probs, err := f.PredictProba(te)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := f.Predict(te)
	if err != nil {
		t.Fatal(err)
	}
	between := 0
	for i, p := range probs {
		if p < 0 || p > 1 || p*31 != math.Round(p*31) {
			t.Fatalf("row %d: share %v is not a count of 31 trees", i, p)
		}
		if p > 0 && p < 1 {
			between++
		}
		if p > 0.5 && preds[i] != 1 || p < 0.5 && preds[i] != 0 {
			t.Errorf("row %d: share %v voting 1, Predict gives %v", i, p, preds[i])
		}
	}
	if between == 0 {
		t.Error("every row's trees voted as one: the shares rank nothing the labels do not")
	}
	reg := NewRandomForest(TreeRegression, 5)
	if err := reg.Fit(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.PredictProba(te); err == nil {
		t.Error("a regression forest gave class probabilities")
	}
}

func TestRandomForestDeterministicForSeed(t *testing.T) {
	ds, _ := regData(t, 7, 100)
	p1 := fitPredict(t, func() core.Estimator { f := NewRandomForest(TreeRegression, 10); f.Seed = 42; return f }, ds)
	p2 := fitPredict(t, func() core.Estimator { f := NewRandomForest(TreeRegression, 10); f.Seed = 42; return f }, ds)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("same seed must reproduce identical forests")
		}
	}
}

func fitPredict(t *testing.T, mk func() core.Estimator, ds *dataset.Dataset) []float64 {
	t.Helper()
	m := mk()
	if err := m.Fit(ds); err != nil {
		t.Fatal(err)
	}
	p, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestKNNRegressionAndClassification(t *testing.T) {
	ds := clfData(t, 8, 200, 2)
	rng := rand.New(rand.NewSource(8))
	tr, te := trainTestSplit(ds, 0.7, rng)
	knn := NewKNN(KNNClassification, 5)
	if err := knn.Fit(tr); err != nil {
		t.Fatal(err)
	}
	preds, err := knn.Predict(te)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := metrics.Accuracy(te.Y, preds)
	if acc < 0.85 {
		t.Fatalf("knn accuracy %v", acc)
	}

	// Regression: k=1 on train data reproduces targets exactly.
	reg, _ := regData(t, 9, 50)
	k1 := NewKNN(KNNRegression, 1)
	if err := k1.Fit(reg); err != nil {
		t.Fatal(err)
	}
	rp, err := k1.Predict(reg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rp {
		if math.Abs(rp[i]-reg.Y[i]) > 1e-9 {
			t.Fatalf("1-NN self prediction differs at %d", i)
		}
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	ds := clfData(t, 10, 150, 3)
	km := NewKMeans(3)
	km.Seed = 3
	if err := km.Fit(ds); err != nil {
		t.Fatal(err)
	}
	assign, err := km.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	// Cluster purity: map each cluster to its majority true class and
	// count agreement.
	majority := map[float64]map[float64]int{}
	for i, c := range assign {
		if majority[c] == nil {
			majority[c] = map[float64]int{}
		}
		majority[c][ds.Y[i]]++
	}
	agree := 0
	for _, classCounts := range majority {
		best := 0
		for _, n := range classCounts {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	if purity := float64(agree) / float64(len(assign)); purity < 0.9 {
		t.Fatalf("kmeans purity %v", purity)
	}
	if km.centroids.Rows() != 3 {
		t.Fatalf("centroids %d", km.centroids.Rows())
	}
}

func TestKMeansErrors(t *testing.T) {
	x := matrix.New(3, 2)
	ds, _ := dataset.New(x, nil)
	if err := NewKMeans(5).Fit(ds); err == nil {
		t.Fatal("want K>n error")
	}
	if _, err := NewKMeans(2).Predict(ds); err == nil {
		t.Fatal("want not-fitted error")
	}
}

func TestLogisticRegressionSeparableData(t *testing.T) {
	ds := clfData(t, 11, 200, 2)
	lr := NewLogisticRegression()
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	preds, err := lr.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := metrics.Accuracy(ds.Y, preds)
	if acc < 0.9 {
		t.Fatalf("logistic accuracy %v", acc)
	}
	probs, err := lr.PredictProba(ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
	}
	auc, err := metrics.AUC(ds.Y, probs)
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.95 {
		t.Fatalf("logistic AUC %v", auc)
	}
}

// TestLogisticMatchesLibmSigmoid: training and predicting through
// matrix.Sigmoid stays within 1e-12 of the per-row libm form it replaced,
// labels unchanged.
func TestLogisticMatchesLibmSigmoid(t *testing.T) {
	ds := clfData(t, 11, 200, 2)
	lr := NewLogisticRegression()
	if err := lr.Fit(ds); err != nil {
		t.Fatal(err)
	}
	probs, err := lr.PredictProba(ds)
	if err != nil {
		t.Fatal(err)
	}
	// The loop Fit and PredictProba ran before, sigmoid by sigmoid.
	sigmoid := func(z float64) float64 {
		if z >= 0 {
			return 1 / (1 + math.Exp(-z))
		}
		e := math.Exp(z)
		return e / (1 + e)
	}
	n, p := ds.NumSamples(), ds.NumFeatures()
	coef, intercept := make([]float64, p), 0.0
	z := func(i int) float64 {
		s := intercept
		for j, v := range ds.X.Row(i) {
			s += v * coef[j]
		}
		return s
	}
	for epoch := 0; epoch < lr.Epochs; epoch++ {
		grad, gIntercept := make([]float64, p), 0.0
		for i := 0; i < n; i++ {
			e := sigmoid(z(i)) - ds.Y[i]
			gIntercept += e
			for j, v := range ds.X.Row(i) {
				grad[j] += e * v
			}
		}
		inv := 1.0 / float64(n)
		intercept -= lr.LearningRate * gIntercept * inv
		for j := range coef {
			coef[j] -= lr.LearningRate * (grad[j]*inv + lr.Alpha*coef[j])
		}
	}
	for i, got := range probs {
		want := sigmoid(z(i))
		if math.Abs(got-want) > 1e-12 || (got >= 0.5) != (want >= 0.5) {
			t.Fatalf("row %d: P(y=1) %v, libm form %v", i, got, want)
		}
	}
}

func TestLogisticRejectsNonBinaryLabels(t *testing.T) {
	x := matrix.New(3, 1)
	ds, _ := dataset.New(x, []float64{0, 1, 2})
	if err := NewLogisticRegression().Fit(ds); err == nil {
		t.Fatal("want non-binary label error")
	}
}

func TestZeroModelPersistence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 100, Vars: 2, Regime: sim.RegimeRandomWalk}, rng)
	if err != nil {
		t.Fatal(err)
	}
	view, err := tswindow.NewTSAsIs(1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	z := NewZeroModel(0)
	if err := z.Fit(view); err != nil {
		t.Fatal(err)
	}
	preds, err := z.Predict(view)
	if err != nil {
		t.Fatal(err)
	}
	// Prediction for row i is the series value at time i (persistence).
	for i := range preds {
		if preds[i] != series.X.At(i, 0) {
			t.Fatalf("zero model at %d: %v vs %v", i, preds[i], series.X.At(i, 0))
		}
	}
}

func TestARModelBeatsZeroOnARData(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 600, Vars: 1, Regime: sim.RegimeAR}, rng)
	if err != nil {
		t.Fatal(err)
	}
	view, err := tswindow.NewTSAsIs(1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	trainEnd := 400
	train := view.SliceRange(0, trainEnd)
	test := view.SliceRange(trainEnd, view.NumSamples())

	ar := NewARModel(4, 0)
	if err := ar.Fit(train); err != nil {
		t.Fatal(err)
	}
	arPred, err := ar.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	z := NewZeroModel(0)
	if err := z.Fit(train); err != nil {
		t.Fatal(err)
	}
	zPred, err := z.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	arRMSE, _ := metrics.RMSE(test.Y, arPred)
	zRMSE, _ := metrics.RMSE(test.Y, zPred)
	if arRMSE >= zRMSE {
		t.Fatalf("AR RMSE %v should beat Zero %v on AR data", arRMSE, zRMSE)
	}
}

func TestARModelErrors(t *testing.T) {
	x := matrix.New(4, 1)
	ds, _ := dataset.New(x, []float64{1, 2, 3, 4})
	ar := NewARModel(10, 0)
	if err := ar.Fit(ds); err == nil {
		t.Fatal("want too-short error")
	}
	if _, err := ar.Predict(ds); err == nil {
		t.Fatal("want not-fitted error")
	}
	if err := NewARModel(2, 5).Fit(ds); err == nil {
		t.Fatal("want target range error")
	}
}

func TestSetParamAllModels(t *testing.T) {
	models := []core.Estimator{
		NewLinearRegression(), NewDecisionTree(TreeRegression), NewRandomForest(TreeRegression, 5),
		NewKNN(KNNRegression, 3), NewKMeans(2), NewLogisticRegression(), NewZeroModel(0), NewARModel(2, 0),
	}
	for _, m := range models {
		if err := m.SetParam("definitely_bogus_param", 1); err == nil {
			t.Errorf("%s accepted bogus param", m.Name())
		}
		c := m.Clone()
		if c.Name() != m.Name() {
			t.Errorf("clone of %s renamed to %s", m.Name(), c.Name())
		}
	}
	f := NewRandomForest(TreeRegression, 5)
	for k, v := range map[string]float64{"n_trees": 7, "max_depth": 4, "min_leaf": 2, "seed": 9} {
		if err := f.SetParam(k, v); err != nil {
			t.Fatalf("forest SetParam(%s): %v", k, err)
		}
	}
	if f.NTrees != 7 || f.MaxDepth != 4 || f.MinLeaf != 2 || f.Seed != 9 {
		t.Fatalf("forest params not applied: %+v", f)
	}
}

// withWidth is ds with p features: its first p columns, then zeros.
func withWidth(t *testing.T, ds *dataset.Dataset, p int) *dataset.Dataset {
	t.Helper()
	x := matrix.New(ds.NumSamples(), p)
	for i := 0; i < ds.NumSamples(); i++ {
		copy(x.Row(i), ds.X.Row(i))
	}
	out, err := dataset.New(x, ds.Y)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPredictRefusesOtherWidths: every estimator fitted on 4 features
// refuses to predict on 3 or on 5, with an error and without a panic. A
// tree used to read a narrower row's cells from the next row, and past the
// last one.
func TestPredictRefusesOtherWidths(t *testing.T) {
	reg, _ := regData(t, 41, 60)
	clf := clfData(t, 42, 60, 2)
	for _, c := range []struct {
		m  core.Estimator
		ds *dataset.Dataset
	}{
		{NewLinearRegression(), reg},
		{NewDecisionTree(TreeRegression), reg},
		{NewDecisionTree(TreeClassification), clf},
		{NewRandomForest(TreeRegression, 5), reg},
		{NewRandomForest(TreeClassification, 5), clf},
		{NewKNN(KNNRegression, 3), reg},
		{NewKNN(KNNClassification, 3), clf},
		{NewKMeans(2), reg},
		{NewLogisticRegression(), clf},
		{NewZeroModel(0), reg},
		{NewARModel(2, 0), reg},
	} {
		if err := c.m.Fit(c.ds); err != nil {
			t.Fatalf("%s: %v", c.m.Name(), err)
		}
		for _, p := range []int{3, 5} {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: predict on %d features panicked: %v", c.m.Name(), p, r)
					}
				}()
				if _, err := c.m.Predict(withWidth(t, c.ds, p)); err == nil {
					t.Errorf("%s: fitted on 4 features, predicted on %d without an error", c.m.Name(), p)
				}
			}()
		}
	}
}

// TestSetParamRefusesUnhonouredCounts: a count or column index that is not
// a whole number of at least its floor is refused, naming the model and
// the key, and the field keeps its value; the floor itself is accepted.
// (Grid values reach these through core.Search: TestPlanRejectsBadGridValue.)
func TestSetParamRefusesUnhonouredCounts(t *testing.T) {
	for _, c := range []struct {
		m     core.Estimator
		key   string
		floor float64
	}{
		{NewRandomForest(TreeRegression, 5), "n_trees", 1},
		{NewRandomForest(TreeRegression, 5), "max_depth", 0},
		{NewRandomForest(TreeRegression, 5), "min_leaf", 1},
		{NewDecisionTree(TreeRegression), "max_depth", 0},
		{NewDecisionTree(TreeRegression), "min_leaf", 1},
		{NewKNN(KNNRegression, 3), "k", 1},
		{NewKMeans(2), "k", 1},
		{NewKMeans(2), "max_iters", 1},
		{NewKMeans(2), "n_init", 1},
		{NewLogisticRegression(), "epochs", 1},
		{NewARModel(2, 0), "p", 1},
		{NewARModel(2, 0), "target", 0},
		{NewZeroModel(0), "target", 0},
	} {
		for _, v := range []float64{c.floor - 1, c.floor + 0.5, math.NaN(), math.Inf(1)} {
			before := c.m.Params()[c.key]
			err := c.m.SetParam(c.key, v)
			if err == nil || !strings.Contains(err.Error(), c.m.Name()) || !strings.Contains(err.Error(), c.key) {
				t.Errorf("%s SetParam(%s, %v): err %v, want a refusal naming both", c.m.Name(), c.key, v, err)
			}
			if after := c.m.Params()[c.key]; after != before {
				t.Errorf("%s SetParam(%s, %v) refused but changed it from %v to %v", c.m.Name(), c.key, v, before, after)
			}
		}
		if err := c.m.SetParam(c.key, c.floor); err != nil || c.m.Params()[c.key] != c.floor {
			t.Errorf("%s SetParam(%s, %v): err %v, value %v", c.m.Name(), c.key, c.floor, err, c.m.Params()[c.key])
		}
	}
}
