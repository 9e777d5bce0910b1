package core_test

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
)

// profileSearch runs a local search big enough that its wall time
// dwarfs the pre-span validation and post-span bookkeeping the profile
// cannot see.
func profileSearch(t *testing.T) (core.SearchResult, time.Duration) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 400, Features: 6, Informative: 4, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	start := time.Now()
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 4, Shuffle: true},
		Scorer:      scorer,
		Seed:        7,
		Parallelism: 2,
	})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	return *res, wall
}

func TestSearchProfileSumsToWallTime(t *testing.T) {
	res, wall := profileSearch(t)
	p := res.Profile
	if p.Total <= 0 {
		t.Fatal("profile total is zero; tracing should be on by default")
	}
	sum := p.Compute + p.DARRWait + p.StoreWait + p.Queue + p.Other
	if sum != p.Total {
		t.Fatalf("components sum to %v, want exactly total %v", sum, p.Total)
	}
	if p.Compute <= 0 {
		t.Errorf("local search reported zero compute time: %+v", p)
	}
	if p.Total > wall {
		t.Errorf("profile total %v exceeds measured wall time %v", p.Total, wall)
	}
	// The span window opens after option validation and closes before
	// final result assembly; that slack must stay within 5% of wall
	// (plus a small absolute floor for very fast runs).
	if slack := wall - p.Total; slack > wall/20+2*time.Millisecond {
		t.Errorf("profile total %v misses %v of the %v wall time", p.Total, slack, wall)
	}
}

func TestSearchCriticalPathMetricExported(t *testing.T) {
	profileSearch(t)
	rr := httptest.NewRecorder()
	obs.MetricsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, comp := range []string{trace.CompCompute, trace.CompDARRWait, trace.CompStoreWait, trace.CompQueue, trace.CompOther} {
		series := `coda_search_critical_path_seconds_count{component="` + comp + `"}`
		if !strings.Contains(body, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
}

func TestSearchProfileZeroWhenTracingOff(t *testing.T) {
	trace.SetEnabled(false)
	defer trace.SetEnabled(true)
	res, _ := profileSearch(t)
	if res.Profile != (core.SearchProfile{}) {
		t.Fatalf("profile with tracing off = %+v, want zero", res.Profile)
	}
}
