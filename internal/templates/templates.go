// Package templates packages the paper's AI solution templates (Section
// IV-E): Failure Prediction Analysis, Root Cause Analysis, Anomaly
// Analysis, and Cohort Analysis. Each is a one-call workflow with its
// choices fixed, trading generality for consumability by non-expert
// users — the paper's stated design point for heavy industry. Failure
// Prediction and Anomaly Analysis search a small TEG with core.Search; Root
// Cause and Cohort Analysis are not predictive searches (DESIGN.md §3).
package templates

import (
	"context"
	"fmt"
	"math"
	"sort"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/tswindow"
)

// FPAConfig configures FailurePrediction.
type FPAConfig struct {
	History   int     // sensor history window per sample (default 8)
	TrainFrac float64 // leading fraction of time used for training (default 0.7)
	Seed      int64   // the forest's seed
}

// FPAResult reports the searched failure-prediction pipelines and the
// winner's quality on the held-out (later) time range.
type FPAResult struct {
	Precision, Recall, F1, AUC float64
	TestPositives              int
	Search                     *core.SearchResult // every pipeline's F1 on the train range, and the winner
}

// FailurePrediction builds models that predict imminent failures from
// sensor history and its failure log, series.Y: sensor windows, labelled
// at their last timestamp, go through a TEG search of scalers and
// classifiers on the early portion of history, and the winner, refitted
// there, is evaluated on the later portion (no temporal leakage).
func FailurePrediction(series *dataset.Dataset, cfg FPAConfig) (*FPAResult, error) {
	return failurePrediction(series, cfg, fpaGraph(cfg.Seed))
}

// fpaGraph is FPA's TEG: the four feature scalers, each ahead of logistic
// regression and a random forest classifier.
func fpaGraph(seed int64) *core.Graph {
	logistic := mlmodels.NewLogisticRegression()
	logistic.Epochs = 400
	forest := mlmodels.NewRandomForest(mlmodels.TreeClassification, 40)
	forest.Seed = seed
	return core.NewGraph().
		AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewNoOp()).
		AddEstimatorStage("classifier", logistic, forest)
}

// failurePrediction is FailurePrediction searching g.
func failurePrediction(series *dataset.Dataset, cfg FPAConfig, g *core.Graph) (*FPAResult, error) {
	if cfg.History <= 0 {
		cfg.History = 8
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.7
	}
	if t := series.NumSamples(); t < cfg.History*4 {
		return nil, fmt.Errorf("templates: series of %d too short for history %d", t, cfg.History)
	}
	all, err := tswindow.NewFlatWindowing(cfg.History, 0, 0).Transform(series)
	if err != nil {
		return nil, fmt.Errorf("templates: FPA needs a failure label per timestamp in the series' Y: %w", err)
	}
	cut := int(float64(all.NumSamples()) * cfg.TrainFrac)
	train, test := all.SliceRange(0, cut), all.SliceRange(cut, all.NumSamples())

	// Folds slide forward in time, a buffer of History windows apart, so no
	// fold trains on a window that overlaps its test.
	span := cut - cfg.History
	fitted, search, err := searchAndFit(g, train, core.SearchOptions{
		Splitter: crossval.SlidingSplit{K: 3, TrainSize: span / 2, TestSize: span / 4, Buffer: cfg.History},
		Scorer:   metrics.Scorer{Name: "f1", Fn: metrics.F1},
	})
	if err != nil {
		return nil, fmt.Errorf("templates: FPA: %w", err)
	}
	preds, err := fitted.Predict(test)
	if err != nil {
		return nil, err
	}
	scores := preds // ranked by P(y=1) when the winner gives it
	if clf, ok := fitted.Estimator().(interface {
		PredictProba(*dataset.Dataset) ([]float64, error)
	}); ok {
		features, err := fitted.Transform(test)
		if err == nil {
			scores, err = clf.PredictProba(features)
		}
		if err != nil {
			return nil, err
		}
	}

	res := &FPAResult{Search: search}
	res.Precision, res.Recall, res.F1, err = metrics.PrecisionRecallF1(test.Y, preds)
	if err != nil {
		return nil, err
	}
	for _, l := range test.Y {
		if l == 1 {
			res.TestPositives++
		}
	}
	if auc, err := metrics.AUC(test.Y, scores); err == nil {
		res.AUC = auc
	}
	return res, nil
}

// searchAndFit searches g on ds and fits the winner there.
func searchAndFit(g *core.Graph, ds *dataset.Dataset, opts core.SearchOptions) (*core.Pipeline, *core.SearchResult, error) {
	search, err := core.Search(context.Background(), g, ds, opts)
	if err != nil {
		return nil, nil, err
	}
	fitted, err := search.FitBest(context.Background())
	return fitted, search, err
}

// Factor is one ranked driver from Root Cause Analysis.
type Factor struct {
	Name string
	// Importance is the absolute standardized effect on the outcome.
	Importance float64
	// Direction is +1 when increasing the factor increases the outcome,
	// -1 otherwise — the intervention hint the paper calls for.
	Direction float64
}

// RCAResult ranks the statistical drivers of an outcome.
type RCAResult struct {
	Factors []Factor // sorted by decreasing importance
	R2      float64  // fit quality of the explanatory model
}

// RootCauseAnalysis fits a standardized linear model of the outcome (Y)
// against the process factors (X) and ranks factors by absolute
// standardized coefficient — the sensitivity analysis of Section II: how
// much each factor contributes and in which direction.
func RootCauseAnalysis(ds *dataset.Dataset) (*RCAResult, error) {
	if ds.Y == nil {
		return nil, fmt.Errorf("templates: RCA requires an outcome column")
	}
	if ds.NumSamples() < ds.NumFeatures()+2 {
		return nil, fmt.Errorf("templates: RCA needs more samples (%d) than factors (%d)", ds.NumSamples(), ds.NumFeatures())
	}
	scaler := preprocess.NewStandardScaler()
	if err := scaler.Fit(ds); err != nil {
		return nil, err
	}
	scaled, err := scaler.Transform(ds)
	if err != nil {
		return nil, err
	}
	lr := mlmodels.NewLinearRegression()
	if err := lr.Fit(scaled); err != nil {
		return nil, fmt.Errorf("templates: RCA model: %w", err)
	}
	coef, _, err := lr.Coefficients()
	if err != nil {
		return nil, err
	}
	preds, err := lr.Predict(scaled)
	if err != nil {
		return nil, err
	}
	r2, err := metrics.R2(scaled.Y, preds)
	if err != nil {
		return nil, err
	}
	out := &RCAResult{R2: r2}
	for j, c := range coef {
		name := fmt.Sprintf("x%d", j)
		if ds.ColNames != nil && j < len(ds.ColNames) {
			name = ds.ColNames[j]
		}
		dir := 1.0
		if c < 0 {
			dir = -1
		}
		out.Factors = append(out.Factors, Factor{Name: name, Importance: math.Abs(c), Direction: dir})
	}
	sort.Slice(out.Factors, func(a, b int) bool { return out.Factors[a].Importance > out.Factors[b].Importance })
	return out, nil
}

// AnomalyConfig configures AnomalyAnalysis.
type AnomalyConfig struct {
	Threshold float64 // robust z-score above which a point is flagged (default 5)
}

// AnomalyResult flags timestamps operating in an anomalous mode.
type AnomalyResult struct {
	Scores      []float64          // robust z-score per timestamp
	AnomalousAt []int              // flagged timestamps, ascending
	Search      *core.SearchResult // every normal-behaviour model's RMSE, and the winner
}

// AnomalyAnalysis models normal operation of the series' first column
// with the one-step predictor a TEG search picks, and flags timestamps
// whose residual exceeds Threshold robust standard deviations (median
// absolute deviation scaled), separating normal from anomalous modes.
func AnomalyAnalysis(series *dataset.Dataset, cfg AnomalyConfig) (*AnomalyResult, error) {
	return anomalyAnalysis(series, cfg, anomalyGraph())
}

// anomalyGraph is Anomaly's TEG: the series as is, one step ahead, into
// persistence or AR(p) for p in {2, 4, 8}.
func anomalyGraph() *core.Graph {
	return core.NewGraph().
		AddTransformerStage("view", tswindow.NewTSAsIs(1, 0)).
		AddEstimatorStage("normal behaviour", mlmodels.NewZeroModel(0),
			mlmodels.NewARModel(2, 0), mlmodels.NewARModel(4, 0), mlmodels.NewARModel(8, 0))
}

// anomalyAnalysis is AnomalyAnalysis searching g.
func anomalyAnalysis(series *dataset.Dataset, cfg AnomalyConfig, g *core.Graph) (*AnomalyResult, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if series.NumFeatures() == 0 {
		return nil, fmt.Errorf("templates: anomaly series has no columns to monitor")
	}
	n := series.NumSamples()
	fitted, search, err := searchAndFit(g, series, core.SearchOptions{
		Splitter: crossval.SlidingSplit{K: 3, TrainSize: n / 2, TestSize: n / 4, Buffer: 1},
		Scorer:   metrics.Scorer{Name: "rmse", Fn: metrics.RMSE, Lower: true},
	})
	if err != nil {
		return nil, fmt.Errorf("templates: anomaly: %w", err)
	}
	resid, truth, err := fitted.PredictWithTruth(series)
	if err != nil {
		return nil, err
	}
	for i, p := range resid {
		resid[i] = truth[i] - p
	}
	med, mad := medianMAD(resid)
	scale := 1.4826 * mad // MAD -> sigma for normal data
	if scale == 0 {
		scale = 1e-12
	}
	res := &AnomalyResult{Scores: make([]float64, len(resid)), Search: search}
	for i, r := range resid {
		res.Scores[i] = math.Abs(r-med) / scale
		if res.Scores[i] > cfg.Threshold {
			// Residual i concerns the value at time i+1 (horizon 1).
			res.AnomalousAt = append(res.AnomalousAt, i+1)
		}
	}
	return res, nil
}

func medianMAD(xs []float64) (med, mad float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med = s[len(s)/2]
	dev := make([]float64, len(s))
	for i, v := range s {
		dev[i] = math.Abs(v - med)
	}
	sort.Float64s(dev)
	return med, dev[len(dev)/2]
}

// CohortConfig configures CohortAnalysis.
type CohortConfig struct {
	Cohorts int // number of behaviour groups (>= 2)
	Seed    int64
}

// CohortResult groups assets by modelled behaviour.
type CohortResult struct {
	Assignment []int // cohort index per asset
}

// CohortAnalysis summarizes each asset's historical sensor behaviour (per
// variable: mean, standard deviation, and lag-1 autocorrelation) and
// clusters the summaries with k-means, bucketing similar assets into
// cohorts for fleet-level understanding.
func CohortAnalysis(assets []*dataset.Dataset, cfg CohortConfig) (*CohortResult, error) {
	if cfg.Cohorts < 2 {
		return nil, fmt.Errorf("templates: need >= 2 cohorts, got %d", cfg.Cohorts)
	}
	if len(assets) < cfg.Cohorts {
		return nil, fmt.Errorf("templates: %d assets cannot form %d cohorts", len(assets), cfg.Cohorts)
	}
	vars := assets[0].NumFeatures()
	rows := make([][]float64, len(assets))
	// noise[j] estimates each summary feature's per-asset sampling
	// uncertainty, averaged over the fleet.
	noise := make([]float64, 3*vars)
	for a, s := range assets {
		if s.NumFeatures() != vars {
			return nil, fmt.Errorf("templates: asset %d has %d vars, want %d", a, s.NumFeatures(), vars)
		}
		if s.NumSamples() < 3 {
			return nil, fmt.Errorf("templates: asset %d has too little history", a)
		}
		sqrtT := math.Sqrt(float64(s.NumSamples()))
		feats := make([]float64, 0, 3*vars)
		means := s.X.ColMeans()
		stds := s.X.ColStds()
		for j := 0; j < vars; j++ {
			feats = append(feats, means[j], stds[j], s.X.ColLag1Autocorr(j))
			noise[3*j] += stds[j] / sqrtT / float64(len(assets))
			noise[3*j+1] += stds[j] / (math.Sqrt2 * sqrtT) / float64(len(assets))
			noise[3*j+2] += 1 / sqrtT / float64(len(assets))
		}
		rows[a] = feats
	}
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("templates: cohort features: %w", err)
	}
	// Keep only summary features whose cross-asset spread clearly exceeds
	// their sampling noise. Without this, standardization inflates
	// pure-noise summaries (e.g. per-asset std when every asset has the
	// same noise floor) to unit variance and they scramble the
	// clustering.
	spread := x.ColStds()
	var keep []int
	for j, s := range spread {
		if s > 2*noise[j] {
			keep = append(keep, j)
		}
	}
	if len(keep) == 0 {
		// No feature is clearly informative; fall back to all of them.
		keep = make([]int, len(spread))
		for j := range keep {
			keep[j] = j
		}
	}
	summary, err := dataset.New(x.SelectCols(keep), nil)
	if err != nil {
		return nil, err
	}
	// Standardize the surviving summaries so scale differences don't
	// dominate the distance metric.
	scaler := preprocess.NewStandardScaler()
	if err := scaler.Fit(summary); err != nil {
		return nil, err
	}
	scaled, err := scaler.Transform(summary)
	if err != nil {
		return nil, err
	}
	km := mlmodels.NewKMeans(cfg.Cohorts)
	km.Seed = cfg.Seed
	if err := km.Fit(scaled); err != nil {
		return nil, fmt.Errorf("templates: cohort clustering: %w", err)
	}
	assign, err := km.Predict(scaled)
	if err != nil {
		return nil, err
	}
	out := &CohortResult{Assignment: make([]int, len(assets))}
	for i, a := range assign {
		out.Assignment[i] = int(a)
	}
	return out, nil
}

// CohortPurity scores an assignment against ground truth by majority-class
// agreement within each discovered cohort — used by the S4 experiment.
func CohortPurity(assignment, truth []int) (float64, error) {
	if len(assignment) != len(truth) || len(assignment) == 0 {
		return 0, fmt.Errorf("templates: purity needs equal non-empty slices")
	}
	groups := map[int]map[int]int{}
	for i, c := range assignment {
		if groups[c] == nil {
			groups[c] = map[int]int{}
		}
		groups[c][truth[i]]++
	}
	agree := 0
	for _, counts := range groups {
		best := 0
		for _, n := range counts {
			if n > best {
				best = n
			}
		}
		agree += best
	}
	return float64(agree) / float64(len(assignment)), nil
}
