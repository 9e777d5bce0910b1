package core_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
	"coda/internal/faultinject"
	"coda/internal/httpapi"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/preprocess"
)

// claimLog is an HTTP store that records how many keys each ClaimBatch
// asks for.
type claimLog struct {
	*httpapi.Client
	mu    sync.Mutex
	asked []int
}

func (c *claimLog) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	c.mu.Lock()
	c.asked = append(c.asked, len(keys))
	c.mu.Unlock()
	return c.Client.ClaimBatch(ctx, keys)
}

// delayedStore is a client of a fresh DARR server whose every request is
// held for delay on the way out (faultinject). It queues its publishes,
// as coda-client's does, so a worker never waits on one.
func delayedStore(t *testing.T, delay time.Duration) *claimLog {
	t.Helper()
	ts := httptest.NewServer(httpapi.NewServer(darr.NewRepo(nil, time.Minute), nil))
	t.Cleanup(ts.Close)
	c := httpapi.NewClient(ts.URL, "alice")
	c.Metric = "rmse"
	c.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, faultinject.Config{DelayFraction: 1, Delay: delay})}
	c.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
	t.Cleanup(func() { c.Close() })
	return &claimLog{Client: c}
}

// TestClaimWindowGrowsBehindSlowRoundTrips: sub-millisecond units behind
// 20 ms of delay on every DARR request. The first window is the floor,
// and so is the first refill, which knows one round trip. Later refills
// know two, and size the window to cover two round trips of units — past
// the floor, up to the cap of claimCap per worker. So the search makes
// fewer than half the floor's round trips (here 9 of 31; under the race
// detector's slower units, some refills fall short of the cap), holds
// more claims than the floor allows, and never more than the cap does.
func TestClaimWindowGrowsBehindSlowRoundTrips(t *testing.T) {
	const par = 2
	ds := regDS(t, 100)
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	k := make([]float64, 20)
	for i := range k {
		k[i] = float64(i + 1)
	}
	st := delayedStore(t, 20*time.Millisecond)
	opts := batchOpts(st)
	opts.Parallelism = par
	opts.ParamGrid = map[string][]float64{"knn__k": k}
	held := obs.GetGauge("coda_search_claims_held")
	held0 := held.Value()
	var maxHeld atomic.Int64
	base := opts.Scorer.Fn
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		if n := int64(held.Value() - held0); n > maxHeld.Load() {
			maxHeld.Store(n)
		}
		return base(y, yhat)
	}
	res, err := core.Search(context.Background(), g, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	const units = 63
	if res.Computed != units || res.Degraded != 0 {
		t.Fatalf("computed %d, degraded %d of %d units", res.Computed, res.Degraded, units)
	}
	floor, ceiling := core.ClaimAhead*par, core.ClaimCap*par
	asked := st.asked
	t.Logf("keys asked per claim: %v", asked)
	if len(asked) < 3 || asked[0] != floor || asked[1] != floor/2 {
		t.Fatalf("claims asked for %v keys: want a first window of %d and a first refill of %d", asked, floor, floor/2)
	}
	if n := slices.Max(asked); n > ceiling {
		t.Errorf("a claim asked for %d keys, past the cap of %d", n, ceiling)
	}
	atFloor := 1 + (units-floor+floor/2-1)/(floor/2)
	if len(asked) > atFloor/2 {
		t.Errorf("%d claim round trips, want at most half of the floor's %d", len(asked), atFloor)
	}
	if n := maxHeld.Load(); n <= int64((core.ClaimAhead+1)*par) || n > int64((core.ClaimCap+1)*par) {
		t.Errorf("%d claims held during a fold fit, want more than the floor's %d and at most the cap's %d",
			n, (core.ClaimAhead+1)*par, (core.ClaimCap+1)*par)
	}
}

// TestClaimWindowStaysAtFloorForLongUnits: units that each outlast two
// round trips drain the floor window slower than it refills, so it never
// grows past claimAhead per worker, and a peer that joins finds as much
// unclaimed work as before.
func TestClaimWindowStaysAtFloorForLongUnits(t *testing.T) {
	const par = 2
	ds := regDS(t, 100)
	st := delayedStore(t, 2*time.Millisecond)
	g, grid := windowGraph()
	opts := batchOpts(st)
	opts.Parallelism = par
	opts.ParamGrid = grid
	base := opts.Scorer.Fn
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		time.Sleep(5 * time.Millisecond) // three folds: 15 ms a unit
		return base(y, yhat)
	}
	res, err := core.Search(context.Background(), g, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != len(res.Units) || res.Degraded != 0 {
		t.Fatalf("computed %d, degraded %d of %d units", res.Computed, res.Degraded, len(res.Units))
	}
	for i, n := range st.asked {
		if n > core.ClaimAhead*par {
			t.Errorf("claim %d asked for %d keys (all: %v), want at most the floor's %d", i, n, st.asked, core.ClaimAhead*par)
		}
	}
}
