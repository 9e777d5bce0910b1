package templates

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/sim"
	"coda/internal/tswindow"
)

// failureData is the labelled sensor history the FPA tests search.
func failureData(t *testing.T) *sim.FailureData {
	t.Helper()
	fd, err := sim.GenerateFailureData(sim.FailureSpec{Steps: 1200, Sensors: 4, Failures: 12, LeadTime: 12}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	return fd
}

// scalersInto is FPA's graph narrowed to the given classifiers.
func scalersInto(classifiers ...core.Estimator) *core.Graph {
	return core.NewGraph().
		AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewNoOp()).
		AddEstimatorStage("classifier", classifiers...)
}

func TestFailurePredictionDetectsInjectedFailures(t *testing.T) {
	fd := failureData(t)
	cfg := FPAConfig{History: 6, Seed: 2}
	logistic := mlmodels.NewLogisticRegression()
	logistic.Epochs = 400
	forest := mlmodels.NewRandomForest(mlmodels.TreeClassification, 40)
	forest.Seed = cfg.Seed
	// Each classifier behind the searched scalers, and the template's
	// whole graph, which searches both.
	for _, c := range []struct {
		name  string
		g     *core.Graph
		units int
	}{
		{"logistic", scalersInto(logistic), 4},
		{"forest", scalersInto(forest), 4},
		{"searched", fpaGraph(cfg.Seed), 8},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := failurePrediction(fd.Series, cfg, c.g)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Search.Units) != c.units || res.Search.Best == nil {
				t.Fatalf("searched %d pipelines (winner %v), want %d and a winner", len(res.Search.Units), res.Search.Best, c.units)
			}
			if res.TestPositives == 0 {
				t.Skip("no failures landed in the test range")
			}
			if res.F1 < 0.5 {
				t.Fatalf("%s F1 = %v on learnable precursor signature", res.Search.Best.Spec, res.F1)
			}
		})
	}
}

func TestFailurePredictionValidation(t *testing.T) {
	series, _ := dataset.New(matrix.New(40, 2), nil)
	if _, err := FailurePrediction(series, FPAConfig{}); err == nil {
		t.Fatal("want an error for a series with no labels")
	}
	series.Y = make([]float64, 40)
	if _, err := FailurePrediction(series.SliceRange(0, 10), FPAConfig{History: 8}); err == nil {
		t.Fatal("want too-short error")
	}
}

// TestOnePathGraphsReproduceHandBuiltTemplates pins the one-path graphs
// of both searched templates to what the hand-built pipelines they
// replaced computed: StandardScaler into logistic regression (400 epochs)
// for FPA, AR(4) for Anomaly. The search picks its one unit, FitBest fits
// it where the hand-built code fitted, so every bit holds.
func TestOnePathGraphsReproduceHandBuiltTemplates(t *testing.T) {
	logistic := mlmodels.NewLogisticRegression()
	logistic.Epochs = 400
	g := core.NewGraph().AddFeatureScalers(preprocess.NewStandardScaler()).AddEstimatorStage("classifier", logistic)
	fpa, err := failurePrediction(failureData(t).Series, FPAConfig{History: 6, Seed: 2}, g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"precision", fpa.Precision, math.Float64frombits(0x3fecb08d3dcb08d4)},
		{"recall", fpa.Recall, math.Float64frombits(0x3fe71c71c71c71c7)},
		{"F1", fpa.F1, math.Float64frombits(0x3fe9999999999999)},
		{"AUC", fpa.AUC, math.Float64frombits(0x3feee6328c5f75eb)},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("FPA %s = %v, want %v", c.name, c.got, c.want)
		}
	}
	if fpa.TestPositives != 36 {
		t.Errorf("FPA TestPositives = %d, want 36", fpa.TestPositives)
	}

	g = core.NewGraph().AddTransformerStage("view", tswindow.NewTSAsIs(1, 0)).AddEstimatorStage("model", mlmodels.NewARModel(4, 0))
	an, err := anomalyAnalysis(anomalyData(t).Series, AnomalyConfig{Threshold: 6}, g)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, s := range an.Scores {
		_ = binary.Write(h, binary.LittleEndian, math.Float64bits(s))
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(an.Scores) != 599 || got != "dc1e8cedb3150ad93ea400802abf92663079cbc55120869d78749b60a5003a37" {
		t.Errorf("Anomaly scores: %d of them hashing to %s, want 599 hashing to dc1e8ced...", len(an.Scores), got)
	}
	if want := []int{109, 116, 117, 241, 242, 298, 299, 458, 459}; !slices.Equal(an.AnomalousAt, want) {
		t.Errorf("Anomaly flags %v, want %v", an.AnomalousAt, want)
	}
}

// TestTemplatesIdenticalAtParallelism1And2: a template's search runs one
// worker per CPU, and neither it nor the template's result depends on how
// many that is.
func TestTemplatesIdenticalAtParallelism1And2(t *testing.T) {
	fd, ad := failureData(t), anomalyData(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var fpas []*FPAResult
	var anomalies []*AnomalyResult
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		fpa, err := FailurePrediction(fd.Series, FPAConfig{History: 6, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		an, err := AnomalyAnalysis(ad.Series, AnomalyConfig{Threshold: 6})
		if err != nil {
			t.Fatal(err)
		}
		fpas, anomalies = append(fpas, fpa), append(anomalies, an)
	}
	for _, r := range fpas {
		r.Search = stripped(r.Search)
	}
	for _, r := range anomalies {
		r.Search = stripped(r.Search)
	}
	if !reflect.DeepEqual(fpas[0], fpas[1]) {
		t.Errorf("FPA at parallelism 1 and 2:\n%+v\n%+v", fpas[0], fpas[1])
	}
	if !reflect.DeepEqual(anomalies[0], anomalies[1]) {
		t.Errorf("Anomaly at parallelism 1 and 2:\n%+v\n%+v", anomalies[0], anomalies[1])
	}
}

// stripped keeps what a search decided, its units and its winner, without
// the timings and the plan it keeps for FitBest.
func stripped(r *core.SearchResult) *core.SearchResult {
	return &core.SearchResult{Units: r.Units, Best: r.Best, Computed: r.Computed}
}

func TestRootCauseAnalysisRanksTrueDrivers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 300
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a, b, c := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{a, b, c}
		// Outcome driven mostly by factor b (negatively), a little by a.
		y[i] = 0.5*a - 3*b + 0.05*rng.NormFloat64()
		_ = c // noise factor
	}
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New(x, y)
	if err != nil {
		t.Fatal(err)
	}
	ds.ColNames = []string{"temp", "pressure", "humidity"}
	res, err := RootCauseAnalysis(ds)
	if err != nil {
		t.Fatal(err)
	}
	if res.Factors[0].Name != "pressure" || res.Factors[0].Direction != -1 {
		t.Fatalf("top factor = %+v, want pressure with negative direction", res.Factors[0])
	}
	if res.Factors[1].Name != "temp" || res.Factors[1].Direction != 1 {
		t.Fatalf("second factor = %+v, want temp positive", res.Factors[1])
	}
	if res.Factors[2].Name != "humidity" {
		t.Fatalf("noise factor should rank last: %+v", res.Factors)
	}
	if res.R2 < 0.95 {
		t.Fatalf("RCA model R2 = %v", res.R2)
	}
}

func TestRootCauseAnalysisValidation(t *testing.T) {
	x := matrix.New(3, 5)
	ds, _ := dataset.New(x, []float64{1, 2, 3})
	if _, err := RootCauseAnalysis(ds); err == nil {
		t.Fatal("want too-few-samples error")
	}
	ds2, _ := dataset.New(x, nil)
	if _, err := RootCauseAnalysis(ds2); err == nil {
		t.Fatal("want missing-outcome error")
	}
}

// anomalyData is the spiked series the Anomaly tests search.
func anomalyData(t *testing.T) *sim.AnomalyData {
	t.Helper()
	ad, err := sim.GenerateAnomalyData(sim.AnomalySpec{Steps: 600, Vars: 2, Anomalies: 5, Magnitude: 20}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	return ad
}

func TestAnomalyAnalysisFindsInjectedSpikes(t *testing.T) {
	ad := anomalyData(t)
	res, err := AnomalyAnalysis(ad.Series, AnomalyConfig{Threshold: 6})
	if err != nil {
		t.Fatal(err)
	}
	// Every injected anomaly should be flagged at (or adjacent to) its
	// timestamp — a point spike also distorts the next step's AR residual.
	flagged := map[int]bool{}
	for _, at := range res.AnomalousAt {
		flagged[at] = true
	}
	hits := 0
	for _, truth := range ad.AnomalyTimes {
		if flagged[truth] || flagged[truth+1] || flagged[truth-1] {
			hits++
		}
	}
	if hits < len(ad.AnomalyTimes)-1 {
		t.Fatalf("found %d of %d injected anomalies (flagged %v, truth %v)", hits, len(ad.AnomalyTimes), res.AnomalousAt, ad.AnomalyTimes)
	}
	// Flag rate sanity: not everything is anomalous. A point spike can
	// contaminate a few neighbouring residuals, so allow up to ~4 flags
	// per injected anomaly.
	if len(res.AnomalousAt) > 4*len(ad.AnomalyTimes)+5 {
		t.Fatalf("flagged %d timestamps for %d injected anomalies", len(res.AnomalousAt), len(ad.AnomalyTimes))
	}
}

func TestAnomalyAnalysisValidation(t *testing.T) {
	x := matrix.New(50, 0)
	series, _ := dataset.New(x, nil)
	if _, err := AnomalyAnalysis(series, AnomalyConfig{}); err == nil {
		t.Fatal("want an error for a series with no column to monitor")
	}
}

func TestCohortAnalysisRecoversFleetStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	fleet, err := sim.GenerateFleet(sim.FleetSpec{Assets: 18, Cohorts: 3, StepsEach: 60}, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := CohortAnalysis(fleet.AssetSeries, CohortConfig{Cohorts: 3, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	purity, err := CohortPurity(res.Assignment, fleet.TrueCohort)
	if err != nil {
		t.Fatal(err)
	}
	if purity < 0.9 {
		t.Fatalf("cohort purity %v", purity)
	}
}

func TestCohortAnalysisValidation(t *testing.T) {
	if _, err := CohortAnalysis(nil, CohortConfig{Cohorts: 1}); err == nil {
		t.Fatal("want cohorts error")
	}
	x := matrix.New(10, 2)
	a, _ := dataset.New(x, nil)
	if _, err := CohortAnalysis([]*dataset.Dataset{a}, CohortConfig{Cohorts: 2}); err == nil {
		t.Fatal("want too-few-assets error")
	}
	b, _ := dataset.New(matrix.New(10, 3), nil)
	if _, err := CohortAnalysis([]*dataset.Dataset{a, b}, CohortConfig{Cohorts: 2}); err == nil {
		t.Fatal("want var mismatch error")
	}
}

func TestCohortPurityValidation(t *testing.T) {
	if _, err := CohortPurity([]int{1}, []int{1, 2}); err == nil {
		t.Fatal("want length error")
	}
	p, err := CohortPurity([]int{0, 0, 1, 1}, []int{5, 5, 9, 9})
	if err != nil || p != 1 {
		t.Fatalf("perfect purity = %v err %v", p, err)
	}
}
