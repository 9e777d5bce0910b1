package templates

import (
	"math/rand"
	"testing"

	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/sim"
)

func TestFailurePredictionDetectsInjectedFailures(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fd, err := sim.GenerateFailureData(sim.FailureSpec{Steps: 1200, Sensors: 4, Failures: 12, LeadTime: 12}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for name, model := range map[string]FPAModel{"logistic": FPALogistic, "forest": FPAForest} {
		model := model
		t.Run(name, func(t *testing.T) {
			res, err := FailurePrediction(fd.Series, fd.Labels, FPAConfig{History: 6, Model: model, Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if res.TestPositives == 0 {
				t.Skip("no failures landed in the test range")
			}
			if res.F1 < 0.5 {
				t.Fatalf("%s F1 = %v on learnable precursor signature", name, res.F1)
			}
		})
	}
}

func TestFailurePredictionValidation(t *testing.T) {
	x := matrix.New(10, 2)
	series, _ := dataset.New(x, nil)
	if _, err := FailurePrediction(series, []float64{1}, FPAConfig{}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := FailurePrediction(series, make([]float64, 10), FPAConfig{History: 8}); err == nil {
		t.Fatal("want too-short error")
	}
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

func TestAnomalyAnalysisFindsInjectedSpikes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ad, err := sim.GenerateAnomalyData(sim.AnomalySpec{Steps: 600, Vars: 2, Anomalies: 5, Magnitude: 20}, rng)
	if err != nil {
		t.Fatal(err)
	}
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
