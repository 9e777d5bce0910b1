package core_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

var errBadScorer = errors.New("scorer exploded")

// TestFailedUnitReleasesClaim pins the claim-leak fix: a unit that claims
// its key and then fails must release the claim so a second client can
// take the work immediately — not after the TTL.
func TestFailedUnitReleasesClaim(t *testing.T) {
	failing := metrics.Scorer{Name: "rmse", Lower: true,
		Fn: func(y, yhat []float64) (float64, error) { return 0, errBadScorer }}

	t.Run("batched", func(t *testing.T) {
		ds := regDS(t, 80)
		repo := darr.NewRepo(nil, time.Hour) // TTL long enough to expose any leak
		opts := core.SearchOptions{
			Splitter: crossval.KFold{K: 3, Shuffle: true},
			Scorer:   failing,
			Seed:     2,
			Store:    &darr.Client{Repo: repo, ClientID: "alice", Metric: "rmse"},
		}
		res, err := core.Search(context.Background(), degradedGraph(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range res.Units {
			if u.Err == "" || u.Skipped {
				t.Fatalf("unit %s err=%q skipped=%v, want every unit failed", u.Spec, u.Err, u.Skipped)
			}
		}
		if n := repo.ActiveClaims(); n != 0 {
			t.Fatalf("%d claims leaked by failed units", n)
		}
		// A second client gets the work immediately: nothing skipped.
		opts.Store = &darr.Client{Repo: repo, ClientID: "bob", Metric: "rmse"}
		second, err := core.Search(context.Background(), degradedGraph(), ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if second.Skipped != 0 {
			t.Fatalf("second client skipped %d units: failed claims were not released", second.Skipped)
		}
		if n := repo.ActiveClaims(); n != 0 {
			t.Fatalf("%d claims leaked by the second client", n)
		}
	})
}

// TestNaNScorerNeverBest pins the non-finite guard: a scorer that
// returns NaN must yield failed units, never an unbeatable Best, and
// must publish nothing to the shared repository.
func TestNaNScorerNeverBest(t *testing.T) {
	nan := metrics.Scorer{Name: "rmse", Lower: true,
		Fn: func(y, yhat []float64) (float64, error) { return math.NaN(), nil }}
	ds := regDS(t, 80)
	store := newMemBatchStore("me")
	res, err := core.Search(context.Background(), degradedGraph(), ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   nan,
		Store:    store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatalf("NaN-scoring unit became Best: %+v", res.Best)
	}
	if p, err := res.FitBest(context.Background()); err == nil || p != nil {
		t.Fatalf("FitBest with no Best: %v, %v; want an error", p, err)
	}
	for _, u := range res.Units {
		if !strings.Contains(u.Err, "non-finite") {
			t.Fatalf("unit %s err=%q, want non-finite failure", u.Spec, u.Err)
		}
	}
	if store.pubs != 0 {
		t.Fatalf("%d NaN scores published to the shared store", store.pubs)
	}
}

// TestCachedNaNNeverBest: a poisoned repository entry (a peer published
// NaN) is served as a cache hit but must not win best-unit selection.
func TestCachedNaNNeverBest(t *testing.T) {
	ds := regDS(t, 80)
	scorer, _ := metrics.ScorerByName("rmse")
	store := newMemBatchStore("me")
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Store:    store,
	}
	if _, err := core.Search(context.Background(), degradedGraph(), ds, opts); err != nil {
		t.Fatal(err)
	}
	for k := range store.scores {
		store.scores[k] = math.NaN()
	}
	res, err := core.Search(context.Background(), degradedGraph(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 4 {
		t.Fatalf("cache hits %d, want all units cached", res.CacheHits)
	}
	if res.Best != nil {
		t.Fatalf("poisoned NaN cache entry became Best: %+v", res.Best)
	}
}

// emptySplitter returns no folds, the empty-fold poisoning case: the
// mean over zero scores is 0/0 = NaN.
type emptySplitter struct{}

func (emptySplitter) Splits(int, *rand.Rand) ([]crossval.Split, error) { return nil, nil }
func (emptySplitter) Spec() string                                     { return "empty" }

// TestEmptyFoldSetRecordsFailure: zero cross-validation folds must fail
// every unit instead of crowning a NaN-mean Best.
func TestEmptyFoldSetRecordsFailure(t *testing.T) {
	ds := regDS(t, 40)
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), degradedGraph(), ds, core.SearchOptions{
		Splitter: emptySplitter{},
		Scorer:   scorer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatalf("empty-fold unit became Best with mean %v", res.Best.Mean)
	}
	for _, u := range res.Units {
		if !strings.Contains(u.Err, "non-finite") {
			t.Fatalf("unit %s err=%q, want non-finite failure", u.Spec, u.Err)
		}
	}
}

// TestDuplicateSpecsRefitByIndex pins the indexOfSpec fix: units from
// duplicate graph paths share spec and params, so only the carried unit
// index can map the winner back to its pipeline.
func TestDuplicateSpecsRefitByIndex(t *testing.T) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression())
	ds := regDS(t, 80)
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 2 || res.Units[0].Spec != res.Units[1].Spec {
		t.Fatalf("want two duplicate-spec units, got %+v", res.Units)
	}
	for i, u := range res.Units {
		if u.Index != i {
			t.Fatalf("unit %d carries index %d", i, u.Index)
		}
	}
	if res.Best == nil {
		t.Fatal("search over duplicate specs must still produce a winner")
	}
	if res.Best.Index != res.Units[res.Best.Index].Index {
		t.Fatalf("best index %d does not match its unit", res.Best.Index)
	}
	if _, err := res.FitBest(context.Background()); err != nil {
		t.Fatalf("fitting the winner of duplicate specs: %v", err)
	}
}

// fullDataFailure fails to fit its estimator on a dataset of at least min
// samples: cross-validation's training folds fit, the full dataset does
// not.
type fullDataFailure struct {
	core.Estimator
	min int
}

func (f fullDataFailure) Clone() core.Estimator {
	return fullDataFailure{f.Estimator.Clone(), f.min}
}

func (f fullDataFailure) Fit(ds *dataset.Dataset) error {
	if ds.NumSamples() >= f.min {
		return errFullFit
	}
	return f.Estimator.Fit(ds)
}

var errFullFit = errors.New("too many rows")

// TestFailingFullFitLeavesSearchIntact: a winner that fits every fold and
// fails on the full dataset no longer fails the search, which fits nothing
// past cross-validation. FitBest returns the failure, naming the spec, on
// every call.
func TestFailingFullFitLeavesSearchIntact(t *testing.T) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(fullDataFailure{mlmodels.NewLinearRegression(), 80})
	ds := regDS(t, 80)
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
	})
	if err != nil {
		t.Fatalf("search failed on a full-data fit it no longer makes: %v", err)
	}
	if res.Best == nil || res.Computed != 1 {
		t.Fatalf("best %+v after %d computed units, want the one unit", res.Best, res.Computed)
	}
	for i := 0; i < 2; i++ {
		p, err := res.FitBest(context.Background())
		if !errors.Is(err, errFullFit) || !strings.Contains(err.Error(), res.Best.Spec) || p != nil {
			t.Fatalf("FitBest call %d: %v, %v; want an error naming %q", i, p, err, res.Best.Spec)
		}
	}
}
