package sim

import (
	"math"
	"math/rand"
	"testing"
)

// autocorr computes the lag-k autocorrelation of the first differences (for
// walk detection) or raw values.
func autocorr(xs []float64, lag int) float64 {
	n := len(xs)
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-lag; i++ {
		num += (xs[i] - mean) * (xs[i+lag] - mean)
	}
	for _, v := range xs {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

func targetCol(t *testing.T, spec SeriesSpec, seed int64) []float64 {
	t.Helper()
	ds, err := GenerateSeries(spec, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return ds.X.ColCopy(0)
}

func TestGenerateSeriesShapes(t *testing.T) {
	ds, err := GenerateSeries(SeriesSpec{Steps: 100, Vars: 4, Regime: RegimeAR}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 100 || ds.NumFeatures() != 4 {
		t.Fatalf("shape %dx%d", ds.NumSamples(), ds.NumFeatures())
	}
	if ds.ColNames[0] != "target" || ds.ColNames[1] != "sensor1" {
		t.Fatalf("names %v", ds.ColNames)
	}
}

func TestGenerateSeriesErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := GenerateSeries(SeriesSpec{Steps: 5, Vars: 1, Regime: RegimeAR}, rng); err == nil {
		t.Fatal("want steps error")
	}
	if _, err := GenerateSeries(SeriesSpec{Steps: 100, Vars: 1}, rng); err == nil {
		t.Fatal("want regime error")
	}
}

func TestARRegimeIsAutocorrelated(t *testing.T) {
	xs := targetCol(t, SeriesSpec{Steps: 500, Vars: 1, Regime: RegimeAR}, 2)
	if ac := autocorr(xs, 1); ac < 0.5 {
		t.Fatalf("AR regime lag-1 autocorr = %v, want strong positive", ac)
	}
}

func TestRandomWalkIncrementsUncorrelated(t *testing.T) {
	xs := targetCol(t, SeriesSpec{Steps: 2000, Vars: 1, Regime: RegimeRandomWalk}, 3)
	diffs := make([]float64, len(xs)-1)
	for i := 1; i < len(xs); i++ {
		diffs[i-1] = xs[i] - xs[i-1]
	}
	if ac := math.Abs(autocorr(diffs, 1)); ac > 0.1 {
		t.Fatalf("random walk increments lag-1 autocorr = %v, want ~0", ac)
	}
}

func TestSeasonalRegimePeriodicity(t *testing.T) {
	xs := targetCol(t, SeriesSpec{Steps: 480, Vars: 1, Regime: RegimeSeasonal, Noise: 0.05}, 4)
	// Values one full period (12) apart should correlate strongly.
	if ac := autocorr(xs, 12); ac < 0.7 {
		t.Fatalf("seasonal lag-12 autocorr = %v, want strong", ac)
	}
}

func TestTransactionalTargetTracksDrivers(t *testing.T) {
	ds, err := GenerateSeries(SeriesSpec{Steps: 1000, Vars: 4, Regime: RegimeTransactional, Noise: 0.01}, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	// Reconstruct the target from the known driver weights 1/j.
	var sse, sst float64
	mean := 0.0
	for i := 0; i < ds.NumSamples(); i++ {
		mean += ds.X.At(i, 0)
	}
	mean /= float64(ds.NumSamples())
	for i := 0; i < ds.NumSamples(); i++ {
		pred := 0.0
		for j := 1; j < 4; j++ {
			pred += ds.X.At(i, j) / float64(j)
		}
		d := ds.X.At(i, 0) - pred
		sse += d * d
		dm := ds.X.At(i, 0) - mean
		sst += dm * dm
	}
	if r2 := 1 - sse/sst; r2 < 0.95 {
		t.Fatalf("transactional target R2 vs drivers = %v, want > 0.95", r2)
	}
}

func TestGenerateFailureData(t *testing.T) {
	fd, err := GenerateFailureData(FailureSpec{Steps: 600, Sensors: 4, Failures: 5, LeadTime: 10}, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.FailureTimes) != 5 {
		t.Fatalf("failures %d", len(fd.FailureTimes))
	}
	if len(fd.Series.Y) != 600 || fd.Series.NumSamples() != 600 {
		t.Fatal("label/series length mismatch")
	}
	// Labels are 1 exactly in the lead windows.
	pos := 0
	for _, l := range fd.Series.Y {
		if l == 1 {
			pos++
		}
	}
	if pos == 0 || pos > 5*10+5 {
		t.Fatalf("positive labels %d implausible", pos)
	}
	// Sensor 0 during lead windows should sit above its quiet-time level.
	var leadSum, quietSum float64
	var leadN, quietN int
	for tt := 0; tt < 600; tt++ {
		if fd.Series.Y[tt] == 1 {
			leadSum += fd.Series.X.At(tt, 0)
			leadN++
		} else {
			quietSum += fd.Series.X.At(tt, 0)
			quietN++
		}
	}
	if leadSum/float64(leadN) < quietSum/float64(quietN)+0.5 {
		t.Fatal("degradation signature missing from sensor 0")
	}
	if _, err := GenerateFailureData(FailureSpec{Steps: 100, Sensors: 2, Failures: 50, LeadTime: 10}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want does-not-fit error")
	}
}

func TestGenerateAnomalyData(t *testing.T) {
	ad, err := GenerateAnomalyData(AnomalySpec{Steps: 400, Vars: 2, Anomalies: 6}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ad.AnomalyTimes) != 6 {
		t.Fatalf("anomalies %d", len(ad.AnomalyTimes))
	}
	seen := map[int]bool{}
	for _, at := range ad.AnomalyTimes {
		if at < 0 || at >= 400 {
			t.Fatalf("anomaly time %d out of range", at)
		}
		if seen[at] {
			t.Fatalf("duplicate anomaly time %d", at)
		}
		seen[at] = true
	}
	if _, err := GenerateAnomalyData(AnomalySpec{Steps: 10, Vars: 1, Anomalies: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want spec error")
	}
}

func TestGenerateFleet(t *testing.T) {
	fleet, err := GenerateFleet(FleetSpec{Assets: 12, Cohorts: 3, StepsEach: 50}, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.AssetSeries) != 12 || len(fleet.TrueCohort) != 12 {
		t.Fatal("fleet size wrong")
	}
	// Assets in different cohorts operate at clearly different levels.
	level := func(a int) float64 {
		s := fleet.AssetSeries[a]
		m := 0.0
		for i := 0; i < s.NumSamples(); i++ {
			m += s.X.At(i, 0)
		}
		return m / float64(s.NumSamples())
	}
	if math.Abs(level(0)-level(1)) < 5 {
		t.Fatalf("cohort levels too close: %v vs %v", level(0), level(1))
	}
	if _, err := GenerateFleet(FleetSpec{Assets: 2, Cohorts: 3, StepsEach: 50}, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("want spec error")
	}
}

func TestDeterminismForSeed(t *testing.T) {
	a := targetCol(t, SeriesSpec{Steps: 50, Vars: 2, Regime: RegimeAR}, 99)
	b := targetCol(t, SeriesSpec{Steps: 50, Vars: 2, Regime: RegimeAR}, 99)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must reproduce identical series")
		}
	}
}
