package core_test

import (
	"context"
	"errors"
	"sync"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

var errMidSearch = errors.New("darr flaked mid-search")

// intermittentStore works for the first `healthyCalls` operations, then
// fails every one — a DARR that dies while a search is in flight.
type intermittentStore struct {
	mu           sync.Mutex
	healthyCalls int
	calls        int
	scores       map[string]float64
	claimed      map[string]bool
	pubs         int
}

func newIntermittentStore(healthyCalls int) *intermittentStore {
	return &intermittentStore{
		healthyCalls: healthyCalls,
		scores:       map[string]float64{},
		claimed:      map[string]bool{},
	}
}

func (s *intermittentStore) failing() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	return s.calls > s.healthyCalls
}

func (s *intermittentStore) Lookup(_ context.Context, key string) (float64, bool, error) {
	if s.failing() {
		return 0, false, errMidSearch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.scores[key]
	return v, ok, nil
}

func (s *intermittentStore) Claim(_ context.Context, key string) (bool, error) {
	if s.failing() {
		return false, errMidSearch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.claimed[key] {
		return false, nil
	}
	s.claimed[key] = true
	return true, nil
}

func (s *intermittentStore) Publish(_ context.Context, key string, score float64, _ string) error {
	if s.failing() {
		return errMidSearch
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pubs++
	s.scores[key] = score
	return nil
}

func degradedGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	return g
}

// TestSearchDegradesOnMidSearchStoreErrors pins the fault-tolerance
// contract: when the ResultStore starts erroring partway through, the
// search neither aborts nor loses units — failed-store units are computed
// locally and counted as degraded, and the best pipeline matches the
// store-free run.
func TestSearchDegradesOnMidSearchStoreErrors(t *testing.T) {
	ds := regDS(t, 100)
	scorer, _ := metrics.ScorerByName("rmse")
	base := core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     7,
		// The blackout below is counted in store calls, so units must
		// reach the store one after another.
		Parallelism: 1,
	}

	baseline, err := core.Search(context.Background(), degradedGraph(), ds, base)
	if err != nil || baseline.Best == nil {
		t.Fatalf("baseline: best=%v err=%v", baseline.Best, err)
	}

	// The store survives the first unit (lookup+claim+publish = 3 calls)
	// then blacks out for the remaining three units.
	opts := base
	store := newIntermittentStore(3)
	opts.Store = store
	res, err := core.Search(context.Background(), degradedGraph(), ds, opts)
	if err != nil {
		t.Fatalf("mid-search store failure must not abort the search: %v", err)
	}
	if res.Computed != 4 {
		t.Fatalf("computed = %d, want all 4 units evaluated locally", res.Computed)
	}
	if res.Degraded != 3 {
		t.Fatalf("degraded = %d, want the 3 post-blackout units", res.Degraded)
	}
	if store.pubs != 1 {
		t.Fatalf("store received %d publishes, want 1 before the blackout", store.pubs)
	}
	if res.Best == nil || res.Best.Spec != baseline.Best.Spec || res.Best.Mean != baseline.Best.Mean {
		t.Fatalf("best under degradation = %+v, want baseline %q", res.Best, baseline.Best.Spec)
	}
	degradedUnits := 0
	for _, u := range res.Units {
		if u.Degraded {
			degradedUnits++
		}
	}
	if degradedUnits != res.Degraded {
		t.Fatalf("unit flags (%d) disagree with summary (%d)", degradedUnits, res.Degraded)
	}
}

// TestSearchDegradesOnPublishFailure covers the tail case: computation
// succeeds but the publish is lost, so peers never see the result — the
// unit must be flagged degraded while the search still succeeds.
func TestSearchDegradesOnPublishFailure(t *testing.T) {
	ds := regDS(t, 80)
	scorer, _ := metrics.ScorerByName("rmse")
	// Healthy for unit 1's lookup+claim, fails at its publish and after.
	store := newIntermittentStore(2)
	res, err := core.Search(context.Background(), degradedGraph(), ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     5,
		Store:    store,
	})
	if err != nil {
		t.Fatalf("publish failure must not abort: %v", err)
	}
	if res.Degraded == 0 {
		t.Fatal("lost publishes should mark units degraded")
	}
	if res.Best == nil || res.Computed != 4 {
		t.Fatalf("computed=%d best=%v, want full local completion", res.Computed, res.Best)
	}
}
