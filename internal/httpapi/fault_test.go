package httpapi

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/faultinject"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/retry"
	"coda/internal/store"
)

// noWait is a retry clock that retries at once.
func noWait(ctx context.Context, _ time.Duration) error { return ctx.Err() }

// newFaultyClient builds a server plus a client whose transport injects
// the given faults, retrying without waiting.
func newFaultyClient(t *testing.T, cfg faultinject.Config) (*Client, *faultinject.Transport, *darr.Repo) {
	t.Helper()
	repo := darr.NewRepo(nil, time.Minute)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	ts := httptest.NewServer(NewServer(repo, hs))
	t.Cleanup(ts.Close)
	tr := faultinject.NewTransport(nil, cfg)
	c := NewClient(ts.URL, "faulty-client")
	c.HTTP = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	c.Retry = retry.Policy{MaxAttempts: 8, Sleep: noWait}
	return c, tr, repo
}

func TestClientOperationsSurvive30PercentLoss(t *testing.T) {
	c, tr, _ := newFaultyClient(t, faultinject.Config{Seed: 11, DropFraction: 0.2, ErrorFraction: 0.1})
	ctx := context.Background()
	key := core.UnitKey("fp", "input -> noop -> linreg", "kfold(k=3)|rmse|seed=1")

	if _, ok, err := c.Lookup(ctx, key); err != nil || ok {
		t.Fatalf("lookup miss: ok=%v err=%v", ok, err)
	}
	granted, err := c.Claim(ctx, key)
	if err != nil || !granted {
		t.Fatalf("claim: %v %v", granted, err)
	}
	if err := c.Publish(ctx, key, 1.25, "under fire"); err != nil {
		t.Fatal(err)
	}
	score, ok, err := c.Lookup(ctx, key)
	if err != nil || !ok || score != 1.25 {
		t.Fatalf("lookup after publish: %v %v %v", score, ok, err)
	}

	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := c.PutObject(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	rep := store.NewReplica()
	if err := c.PullObject(ctx, rep, "obj"); err != nil {
		t.Fatal(err)
	}
	if got, ok := rep.Data("obj"); !ok || len(got) != len(data) {
		t.Fatal("replica missing object after faulty pull")
	}
	if counts := tr.Counts(); counts.Dropped == 0 && counts.Errored == 0 {
		t.Fatalf("fault injector was idle: %+v — test proves nothing", counts)
	}
}

// TestSearchUnderFaultInjection is the acceptance check: a cooperative
// search against a DARR dropping ~30% of requests returns the same best
// pipeline as the fault-free run, degrading to local compute where needed.
func TestSearchUnderFaultInjection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 100, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
		return g
	}
	scorer, _ := metrics.ScorerByName("rmse")
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     11,
	}

	// Fault-free baseline.
	clean, _, _ := newFaultyClient(t, faultinject.Config{})
	clean.Metric = "rmse"
	opts.Store = clean
	baseline, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil || baseline.Best == nil {
		t.Fatalf("baseline search: best=%v err=%v", baseline.Best, err)
	}

	// Same search, fresh server, 30% of requests dropped on the wire.
	faulty, tr, repo := newFaultyClient(t, faultinject.Config{Seed: 31, DropFraction: 0.3})
	faulty.Metric = "rmse"
	opts.Store = faulty
	res, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatalf("search under 30%% loss must not fail: %v", err)
	}
	if res.Best == nil || res.Best.Spec != baseline.Best.Spec {
		t.Fatalf("best under faults = %+v, want spec %q", res.Best, baseline.Best.Spec)
	}
	if res.Best.Mean != baseline.Best.Mean {
		t.Fatalf("best mean %v != baseline %v", res.Best.Mean, baseline.Best.Mean)
	}
	if tr.Counts().Dropped == 0 {
		t.Fatal("no requests were dropped — test proves nothing")
	}
	// Every unit was accounted for, one way or another.
	if got := res.Computed + res.CacheHits + res.Skipped; got != len(res.Units) {
		t.Fatalf("units accounted %d of %d (degraded=%d)", got, len(res.Units), res.Degraded)
	}
	// The retry layer should have pushed at least some results through.
	if repo.Len() == 0 && res.Degraded == 0 {
		t.Fatal("neither published results nor degraded units — faults never hit the client")
	}
}

// TestTwoClientSearchConvergesUnder30PercentLoss: two clients dividing
// one search through claim windows, each behind its own transport
// dropping 30% of requests, both end with every unit scored and the
// fault-free winner — a lost claim reply is re-asked (claims are
// idempotent per client), a lost window degrades, nothing is left
// unscored. Each client searches once, beside the other, and waits for
// whatever its peer held.
//
// The two searches are made to overlap: c0's first claim is held until
// c1's first lookup has been answered. Left to the scheduler, c1 could
// start only after c0 had scored and published every unit; it would then
// make one all-hit lookup, which seed 32's first draw lets through, and
// have nothing dropped. With the gate c0 cannot finish before c1 has
// looked up, so that ordering cannot arise, and c1's lookup finds units
// left to claim.
func TestTwoClientSearchConvergesUnder30PercentLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 100, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
		return g
	}
	scorer, _ := metrics.ScorerByName("rmse")
	opts := core.SearchOptions{
		Splitter:    crossval.KFold{K: 3, Shuffle: true},
		Scorer:      scorer,
		Seed:        11,
		Parallelism: 1,
		ParamGrid:   map[string][]float64{"knn__k": {2, 3, 4, 5, 6}},
	}
	baseline, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil || baseline.Best == nil {
		t.Fatalf("baseline search: best=%v err=%v", baseline.Best, err)
	}

	repo := darr.NewRepo(nil, time.Minute)
	ts := httptest.NewServer(NewServer(repo, store.NewHomeStore(store.Options{BlockSize: 64})))
	defer ts.Close()
	lookedUp := make(chan struct{})
	var lookedUpOnce sync.Once
	openGate := func() { lookedUpOnce.Do(func() { close(lookedUp) }) }
	claimAfterLookup := func(next http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(r *http.Request) (*http.Response, error) {
			if r.URL.Path == "/darr/batch/claims" {
				select {
				case <-lookedUp:
				case <-r.Context().Done():
					return nil, r.Context().Err()
				}
			}
			return next.RoundTrip(r)
		})
	}
	openOnLookup := func(next http.RoundTripper) http.RoundTripper {
		return roundTripFunc(func(r *http.Request) (*http.Response, error) {
			resp, err := next.RoundTrip(r)
			if err == nil && resp.StatusCode == http.StatusOK && r.URL.Path == "/darr/batch/lookup" {
				openGate()
			}
			return resp, err
		})
	}
	var transports []*faultinject.Transport
	search := func(id string, seed int64, gate func(http.RoundTripper) http.RoundTripper) func() *core.SearchResult {
		tr := faultinject.NewTransport(nil, faultinject.Config{Seed: seed, DropFraction: 0.3})
		transports = append(transports, tr)
		c := NewClient(ts.URL, id)
		c.Metric = "rmse"
		c.HTTP = &http.Client{Transport: gate(tr), Timeout: 10 * time.Second}
		c.Retry = retry.Policy{MaxAttempts: 8, Sleep: noWait}
		o := opts
		o.Store = c
		return func() *core.SearchResult {
			res, err := core.Search(context.Background(), build(), ds, o)
			if err != nil {
				t.Errorf("%s: search under 30%% loss must not fail: %v", id, err)
				return &core.SearchResult{}
			}
			return res
		}
	}
	clients := []func() *core.SearchResult{search("c0", 31, claimAfterLookup), search("c1", 32, openOnLookup)}
	results := make([]*core.SearchResult, len(clients))
	var wg sync.WaitGroup
	for i, run := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer openGate() // a c1 whose lookups all failed must not strand c0
			results[i] = run()
		}()
	}
	wg.Wait()
	for i, res := range results {
		if got := res.Computed + res.CacheHits; got != len(baseline.Units) || res.Skipped != 0 {
			t.Fatalf("client %d: %d of %d units scored, %d skipped (degraded %d)", i, got, len(baseline.Units), res.Skipped, res.Degraded)
		}
		if res.Best == nil || res.Best.Spec != baseline.Best.Spec || res.Best.Mean != baseline.Best.Mean {
			t.Fatalf("client %d: best under faults = %+v, want %+v", i, res.Best, baseline.Best)
		}
	}
	for i, tr := range transports {
		if tr.Counts().Dropped == 0 {
			t.Fatalf("client %d: no requests were dropped — test proves nothing", i)
		}
	}
}

// roundTripFunc is an http.RoundTripper made of a function.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestSearchDegradesWhenServerIsGone pins the degrade path: with the
// remote side black-holed, the search completes locally and marks every
// unit degraded after one logical call. The batched protocol's first bulk
// call (the lookup) fails after its MaxAttempts attempts, and the search
// asks the store nothing more.
func TestSearchDegradesWhenServerIsGone(t *testing.T) {
	c, tr, _ := newFaultyClient(t, faultinject.Config{Seed: 5, DropFraction: 1.0})
	c.Metric = "rmse"
	c.Retry = retry.Policy{MaxAttempts: 2, Sleep: noWait}

	rng := rand.New(rand.NewSource(3))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 80, Features: 4, Informative: 2, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	scorer, _ := metrics.ScorerByName("rmse")
	res, err := core.Search(context.Background(), g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Store:    c,
	})
	if err != nil {
		t.Fatalf("search must degrade, not fail: %v", err)
	}
	if res.Computed != 2 || res.Degraded != 2 || res.Best == nil {
		t.Fatalf("computed=%d degraded=%d best=%v, want full local degradation", res.Computed, res.Degraded, res.Best)
	}
	if got := tr.Counts().Total; got != c.Retry.MaxAttempts {
		t.Fatalf("transport saw %d requests, want %d: one logical call", got, c.Retry.MaxAttempts)
	}
}

// TestContextCancellationPropagates pins the satellite bugfix: a
// cancelled context aborts an in-flight DARR call instead of letting the
// 30s client timeout run its course.
func TestContextCancellationPropagates(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer slow.Close()
	defer close(release)

	c := NewClient(slow.URL, "cancelled")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := c.Lookup(ctx, "key")
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled lookup took %v — context not propagated", d)
	}
}
