package experiments

import (
	"math/rand"

	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/sim"
	"coda/internal/templates"
)

// RunS4 reproduces Section IV-E: the four industry solution templates run
// end-to-end on simulated industrial data with injected ground truth,
// reporting each template's detection/attribution quality.
func RunS4(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "S4",
		Title:   "Sec IV-E solution templates on simulated industrial data",
		Columns: []string{"template", "setup", "quality"},
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Failure Prediction Analysis.
	fd, err := sim.GenerateFailureData(sim.FailureSpec{
		Steps: cfg.pick(1500, 700), Sensors: 4, Failures: cfg.pick(14, 7), LeadTime: 12,
	}, rng)
	if err != nil {
		return nil, err
	}
	fpa, err := templates.FailurePrediction(fd.Series, templates.FPAConfig{History: 6, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	t.AddRow("failure prediction (FPA)",
		d(fd.Series.NumSamples())+" steps, "+d(len(fd.FailureTimes))+" failures",
		"F1="+f(fpa.F1)+" AUC="+f(fpa.AUC))

	// Root Cause Analysis: outcome driven by two of four factors.
	n := cfg.pick(400, 200)
	rows := make([][]float64, n)
	y := make([]float64, n)
	for i := range rows {
		a, b, c, e := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		rows[i] = []float64{a, b, c, e}
		y[i] = 2*a - 4*c + 0.1*rng.NormFloat64()
	}
	x, err := matrix.NewFromRows(rows)
	if err != nil {
		return nil, err
	}
	rcaDS, err := dataset.New(x, y)
	if err != nil {
		return nil, err
	}
	rcaDS.ColNames = []string{"speed", "vibration", "temperature", "humidity"}
	rca, err := templates.RootCauseAnalysis(rcaDS)
	if err != nil {
		return nil, err
	}
	top := rca.Factors[0]
	t.AddRow("root cause analysis (RCA)",
		"4 factors, truth: temperature(-) then speed(+)",
		"top="+top.Name+" dir="+f(top.Direction)+" R2="+f(rca.R2))

	// Anomaly Analysis.
	ad, err := sim.GenerateAnomalyData(sim.AnomalySpec{
		Steps: cfg.pick(800, 400), Vars: 2, Anomalies: 6, Magnitude: 20,
	}, rng)
	if err != nil {
		return nil, err
	}
	ar, err := templates.AnomalyAnalysis(ad.Series, templates.AnomalyConfig{Threshold: 6})
	if err != nil {
		return nil, err
	}
	flagged := map[int]bool{}
	for _, at := range ar.AnomalousAt {
		flagged[at] = true
	}
	hits := 0
	for _, truth := range ad.AnomalyTimes {
		if flagged[truth] || flagged[truth+1] || flagged[truth-1] {
			hits++
		}
	}
	t.AddRow("anomaly analysis",
		d(ad.Series.NumSamples())+" steps, 6 injected anomalies",
		"recalled "+d(hits)+"/6, flagged "+d(len(ar.AnomalousAt))+" timestamps")

	// Cohort Analysis.
	fleet, err := sim.GenerateFleet(sim.FleetSpec{
		Assets: cfg.pick(24, 12), Cohorts: 3, StepsEach: cfg.pick(80, 40),
	}, rng)
	if err != nil {
		return nil, err
	}
	ca, err := templates.CohortAnalysis(fleet.AssetSeries, templates.CohortConfig{Cohorts: 3, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	purity, err := templates.CohortPurity(ca.Assignment, fleet.TrueCohort)
	if err != nil {
		return nil, err
	}
	t.AddRow("cohort analysis (CA)",
		d(len(fleet.AssetSeries))+" assets, 3 true cohorts",
		"purity="+f(purity))
	return t, nil
}
