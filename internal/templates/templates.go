// Package templates packages the paper's AI solution templates (Section
// IV-E): Failure Prediction Analysis, Root Cause Analysis, Anomaly
// Analysis, and Cohort Analysis. Each is a one-call workflow that calls the
// preprocess, mlmodels and tswindow components directly, with no TEG
// search (ROADMAP item 31), trading generality for consumability by
// non-expert users — the paper's stated design point for heavy industry.
package templates

import (
	"fmt"
	"math"
	"sort"

	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/tswindow"
)

// FPAModel selects the classifier behind Failure Prediction Analysis.
type FPAModel int

// Supported FPA classifiers.
const (
	FPALogistic FPAModel = iota + 1
	FPAForest
)

// FPAConfig configures FailurePrediction.
type FPAConfig struct {
	History   int      // sensor history window per sample (default 8)
	Model     FPAModel // classifier (default FPALogistic)
	TrainFrac float64  // leading fraction of time used for training (default 0.7)
	Seed      int64
}

// FPAResult reports a trained failure-prediction model and its quality on
// the held-out (later) time range.
type FPAResult struct {
	Precision, Recall, F1, AUC float64
	TestPositives              int
}

// FailurePrediction builds machine-learning models that predict imminent
// failures from historical sensor data and failure logs: sensor windows are
// flattened into feature vectors labelled with the failure flag at the
// window's end, trained on the early portion of history and evaluated on
// the later portion (no temporal leakage).
func FailurePrediction(series *dataset.Dataset, labels []float64, cfg FPAConfig) (*FPAResult, error) {
	if series.NumSamples() != len(labels) {
		return nil, fmt.Errorf("templates: %d sensor rows vs %d labels", series.NumSamples(), len(labels))
	}
	if cfg.History <= 0 {
		cfg.History = 8
	}
	if cfg.TrainFrac <= 0 || cfg.TrainFrac >= 1 {
		cfg.TrainFrac = 0.7
	}
	if cfg.Model == 0 {
		cfg.Model = FPALogistic
	}
	t := series.NumSamples()
	if t < cfg.History*4 {
		return nil, fmt.Errorf("templates: series of %d too short for history %d", t, cfg.History)
	}

	// Build flat windows; the label for a window ending at time e is
	// labels[e] (is a failure imminent now?).
	n := t - cfg.History + 1
	x := matrix.New(n, cfg.History*series.NumFeatures())
	y := make([]float64, n)
	v := series.NumFeatures()
	for i := 0; i < n; i++ {
		dst := x.Row(i)
		for k := 0; k < cfg.History; k++ {
			copy(dst[k*v:(k+1)*v], series.X.Row(i+k))
		}
		y[i] = labels[i+cfg.History-1]
	}
	all, err := dataset.New(x, y)
	if err != nil {
		return nil, fmt.Errorf("templates: building FPA dataset: %w", err)
	}
	cut := int(float64(n) * cfg.TrainFrac)
	if cut <= 0 || cut >= n {
		return nil, fmt.Errorf("templates: train fraction %v leaves an empty split", cfg.TrainFrac)
	}
	train, test := all.SliceRange(0, cut), all.SliceRange(cut, n)

	scaler := preprocess.NewStandardScaler()
	if err := scaler.Fit(train); err != nil {
		return nil, fmt.Errorf("templates: FPA scaler: %w", err)
	}
	trainS, err := scaler.Transform(train)
	if err != nil {
		return nil, err
	}
	testS, err := scaler.Transform(test)
	if err != nil {
		return nil, err
	}

	res := &FPAResult{}
	var preds, scores []float64
	switch cfg.Model {
	case FPALogistic:
		clf := mlmodels.NewLogisticRegression()
		clf.Epochs = 400
		if err := clf.Fit(trainS); err != nil {
			return nil, fmt.Errorf("templates: FPA logistic fit: %w", err)
		}
		if preds, err = clf.Predict(testS); err != nil {
			return nil, err
		}
		if scores, err = clf.PredictProba(testS); err != nil {
			return nil, err
		}
	case FPAForest:
		clf := mlmodels.NewRandomForest(mlmodels.TreeClassification, 40)
		clf.Seed = cfg.Seed
		if err := clf.Fit(trainS); err != nil {
			return nil, fmt.Errorf("templates: FPA forest fit: %w", err)
		}
		if preds, err = clf.Predict(testS); err != nil {
			return nil, err
		}
		scores = preds
	default:
		return nil, fmt.Errorf("templates: unknown FPA model %d", cfg.Model)
	}

	res.Precision, res.Recall, res.F1, err = metrics.PrecisionRecallF1(testS.Y, preds)
	if err != nil {
		return nil, err
	}
	for _, l := range testS.Y {
		if l == 1 {
			res.TestPositives++
		}
	}
	if auc, err := metrics.AUC(testS.Y, scores); err == nil {
		res.AUC = auc
	}
	return res, nil
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
	// Threshold is the robust z-score above which a point is flagged
	// (default 5).
	Threshold float64
}

// anomalyOrder is the AR order of AnomalyAnalysis's normal-behaviour
// model, which predicts the series' first column, the monitored variable.
const anomalyOrder = 4

// AnomalyResult flags timestamps operating in an anomalous mode.
type AnomalyResult struct {
	Scores      []float64 // robust z-score per timestamp
	AnomalousAt []int     // flagged timestamps, ascending
}

// AnomalyAnalysis models normal operation with an AR predictor of the
// monitored variable and flags timestamps whose prediction residual exceeds
// Threshold robust standard deviations (median absolute deviation scaled),
// separating normal from anomalous operating modes.
func AnomalyAnalysis(series *dataset.Dataset, cfg AnomalyConfig) (*AnomalyResult, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 5
	}
	if series.NumFeatures() == 0 {
		return nil, fmt.Errorf("templates: anomaly series has no columns to monitor")
	}
	view, err := tswindow.NewTSAsIs(1, 0).Transform(series)
	if err != nil {
		return nil, fmt.Errorf("templates: anomaly view: %w", err)
	}
	ar := mlmodels.NewARModel(anomalyOrder, 0)
	if err := ar.Fit(view); err != nil {
		return nil, fmt.Errorf("templates: anomaly AR model: %w", err)
	}
	preds, err := ar.Predict(view)
	if err != nil {
		return nil, err
	}
	resid := make([]float64, len(preds))
	for i := range preds {
		resid[i] = view.Y[i] - preds[i]
	}
	med, mad := medianMAD(resid)
	scale := 1.4826 * mad // MAD -> sigma for normal data
	if scale == 0 {
		scale = 1e-12
	}
	res := &AnomalyResult{Scores: make([]float64, len(resid))}
	for i, r := range resid {
		res.Scores[i] = math.Abs(r-med) / scale
		if res.Scores[i] > cfg.Threshold {
			// Residual at view index i concerns the series value at
			// time i+1 (horizon 1).
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
