package core_test

import (
	"context"
	"errors"
	"maps"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
)

var errBatchDown = errors.New("batch endpoint unreachable")

// memBatchStore is a ResultStore + Flusher double recording how often
// each entry point ran, with switches that make its calls fail.
type memBatchStore struct {
	mu      sync.Mutex
	scores  map[string]float64
	claimed map[string]string // key -> client holding the claim

	clientID string
	failLookupBatch,
	failClaimBatch,
	failPublish bool
	// blackoutAt, when positive, is the publish (counting from 1) at which
	// every call starts failing: a DARR that dies under a running search.
	blackoutAt int

	lookupBatches, claimBatches int
	pubs, releases, flushes     int
	// maxHeld is the most claims ever outstanding at once: granted, and
	// neither published nor released.
	maxHeld int
}

func newMemBatchStore(clientID string) *memBatchStore {
	return &memBatchStore{
		scores: map[string]float64{}, claimed: map[string]string{}, clientID: clientID,
	}
}

func (m *memBatchStore) claimLocked(key string) bool {
	if owner, held := m.claimed[key]; held && owner != m.clientID {
		return false
	}
	m.claimed[key] = m.clientID
	return true
}

func (m *memBatchStore) Publish(_ context.Context, key string, score float64, _ string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pubs+1 == m.blackoutAt {
		m.failLookupBatch, m.failClaimBatch, m.failPublish = true, true, true
	}
	if m.failPublish {
		return errBatchDown
	}
	m.pubs++
	m.scores[key] = score
	delete(m.claimed, key)
	return nil
}

func (m *memBatchStore) snapshotScores() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return maps.Clone(m.scores)
}

func (m *memBatchStore) LookupBatch(_ context.Context, keys []string) (map[string]float64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookupBatches++
	if m.failLookupBatch {
		return nil, errBatchDown
	}
	out := map[string]float64{}
	for _, k := range keys {
		if s, ok := m.scores[k]; ok {
			out[k] = s
		}
	}
	return out, nil
}

func (m *memBatchStore) ClaimBatch(_ context.Context, keys []string) (map[string]bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.claimBatches++
	if m.failClaimBatch {
		return nil, errBatchDown
	}
	out := map[string]bool{}
	for _, k := range keys {
		out[k] = m.claimLocked(k)
	}
	m.maxHeld = max(m.maxHeld, len(m.claimed))
	return out, nil
}

func (m *memBatchStore) Release(_ context.Context, key string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.releases++
	if m.claimed[key] == m.clientID {
		delete(m.claimed, key)
	}
	return nil
}

func (m *memBatchStore) Flush(context.Context) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.flushes++
	return nil
}

// batchKey is the DARR key Search gives the unit spec on ds under batchOpts.
func batchKey(ds *dataset.Dataset, spec string) string {
	return core.UnitKey(ds.Fingerprint(), spec, core.EvalSpec(batchOpts(nil)))
}

func batchOpts(store core.ResultStore) core.SearchOptions {
	scorer, _ := metrics.ScorerByName("rmse")
	return core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     5,
		Store:    store,
	}
}

// TestSearchPrefersBatchProtocol pins the round trips of a cooperative
// search: the store sees exactly one bulk lookup and a few claim windows
// per search, not one lookup and one claim per unit, and is flushed on
// exit.
func TestSearchPrefersBatchProtocol(t *testing.T) {
	ds := regDS(t, 100)
	st := newMemBatchStore("alice")
	res, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 || res.CacheHits != 0 || res.Skipped != 0 {
		t.Fatalf("first run computed=%d cache=%d skipped=%d", res.Computed, res.CacheHits, res.Skipped)
	}
	firstClaims := st.claimBatches
	if st.lookupBatches != 1 || firstClaims < 1 || firstClaims > maxClaimCalls(4, runtime.GOMAXPROCS(0)) {
		t.Fatalf("bulk calls lookup=%d claim=%d, want 1 lookup and 1..%d claim windows",
			st.lookupBatches, firstClaims, maxClaimCalls(4, runtime.GOMAXPROCS(0)))
	}
	if st.pubs != 4 {
		t.Fatalf("pubs=%d, want one per computed unit", st.pubs)
	}
	if st.flushes == 0 {
		t.Fatal("search exit must flush the publish queue")
	}
	if len(st.claimed) != 0 {
		t.Fatalf("%d claims outstanding after a clean search", len(st.claimed))
	}

	// Second cooperating client against the same repository: everything
	// is a bulk cache hit, and no claim batch is needed at all.
	st.clientID = "bob"
	second, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 4 || second.Computed != 0 {
		t.Fatalf("second run computed=%d cache=%d, want all cached", second.Computed, second.CacheHits)
	}
	if st.claimBatches != firstClaims || st.lookupBatches != 2 {
		t.Fatalf("all-hit search made %d claim and %d lookup calls, want 0 and 1",
			st.claimBatches-firstClaims, st.lookupBatches-1)
	}
	if second.Best == nil || second.Best.Mean != res.Best.Mean {
		t.Fatal("cached best score differs from computed one")
	}
}

// cancelAtWait is a memBatchStore whose Wait ends the search's context: a
// client that gives up the first time it would wait on a peer.
type cancelAtWait struct {
	*memBatchStore
	cancel context.CancelFunc
}

func (c cancelAtWait) Wait(ctx context.Context, _ []string) error {
	c.cancel()
	<-ctx.Done()
	return ctx.Err()
}

// TestSearchBatchSkipClaimed: keys claimed by a peer are not recomputed —
// after one more lookup, because a denial also means "already published",
// the search waits for the peer; a ctx that ends during that wait skips
// them, and the search returns what it has instead of failing.
func TestSearchBatchSkipClaimed(t *testing.T) {
	ds := regDS(t, 100)
	peer := newMemBatchStore("peer")
	// The peer claims everything first.
	if _, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(peer)); err != nil {
		t.Fatal(err)
	}
	// Wipe scores but re-claim the keys as the peer, so the second
	// client finds them claimed-but-unpublished.
	peer.mu.Lock()
	for k := range peer.scores {
		peer.claimed[k] = "peer"
		delete(peer.scores, k)
	}
	peer.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st := cancelAtWait{memBatchStore: peer, cancel: cancel}
	st.clientID = "me"
	st.lookupBatches = 0
	rec := trace.NewRecorder(4)
	defer trace.SetDefaultRecorder(trace.SetDefaultRecorder(rec))
	res, err := core.Search(ctx, degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatalf("a ctx that ends while the search waits on a peer must not fail it: %v", err)
	}
	if res.Skipped != 4 || res.Computed != 0 {
		t.Fatalf("skipped=%d computed=%d, want all units skipped", res.Skipped, res.Computed)
	}
	if st.lookupBatches != 2 {
		t.Fatalf("%d lookups, want the warm lookup and one over the deferred keys", st.lookupBatches)
	}
	// The spans the profile and the benchmark read: every window a
	// darr_wait bulk_claim with its keys/granted/denied, the second lookup
	// marked deferred.
	attrs := func(sp trace.SpanData) map[string]string {
		m := map[string]string{"component": sp.Component}
		for _, a := range sp.Attrs {
			m[a.Key] = a.Value
		}
		return m
	}
	asked, deferredLookups := 0, 0
	for _, sp := range rec.Traces()[0].Spans {
		a := attrs(sp)
		switch sp.Name {
		case "search.bulk_claim":
			keys, _ := strconv.Atoi(a["keys"])
			asked += keys
			if a["component"] != trace.CompDARRWait || a["granted"] != "0" || a["denied"] != a["keys"] || keys == 0 {
				t.Errorf("bulk_claim span %v, want darr_wait with every key denied", a)
			}
		case "search.bulk_lookup":
			if a["deferred"] == "true" {
				deferredLookups++
			}
		}
	}
	if asked != 4 || deferredLookups != 1 {
		t.Errorf("claim spans asked for %d keys, %d deferred lookup spans; want 4 and 1", asked, deferredLookups)
	}
}

// recheckStore is a memBatchStore whose peer publishes what it holds when
// the search first waits; it records the keys of every wait and lookup.
// The peer's claims stay: this double grants a published key, where the
// DARR denies it.
type recheckStore struct {
	*memBatchStore
	peer            map[string]float64
	waited, lookups [][]string
}

func (r *recheckStore) LookupBatch(ctx context.Context, keys []string) (map[string]float64, error) {
	r.lookups = append(r.lookups, slices.Clone(keys))
	return r.memBatchStore.LookupBatch(ctx, keys)
}

func (r *recheckStore) Wait(_ context.Context, keys []string) error {
	r.waited = append(r.waited, slices.Clone(keys))
	r.mu.Lock()
	defer r.mu.Unlock()
	maps.Copy(r.scores, r.peer)
	return nil
}

// TestSearchRechecksOnlyDeferredKeys: a search whose peer holds one unit
// computes the others, then waits on that key alone; once the peer has
// published it, the re-check looks up that key alone, and the search ends
// with every unit settled and the store-free winner. The search fits no
// winner; FitBest fits it once, in a trace of its own.
func TestSearchRechecksOnlyDeferredKeys(t *testing.T) {
	ds := regDS(t, 100)
	ref, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	held := batchKey(ds, ref.Units[0].Spec)
	st := &recheckStore{memBatchStore: newMemBatchStore("me"), peer: map[string]float64{held: ref.Units[0].Mean}}
	st.claimed[held] = "peer"
	rec := trace.NewRecorder(4)
	defer trace.SetDefaultRecorder(trace.SetDefaultRecorder(rec))
	res, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 3 || res.CacheHits != 1 || res.Skipped != 0 || !sameBestBits(res, ref) {
		t.Fatalf("computed=%d cache=%d skipped=%d best %v; want 3, 1, 0 and %v",
			res.Computed, res.CacheHits, res.Skipped, res.Best, ref.Best)
	}
	if len(st.waited) != 1 || !slices.Equal(st.waited[0], []string{held}) {
		t.Errorf("waited on %q, want once on the held key", st.waited)
	}
	var sizes []int
	for _, keys := range st.lookups {
		sizes = append(sizes, len(keys))
	}
	if !slices.Equal(sizes, []int{4, 1, 1}) || !slices.Equal(st.lookups[2], []string{held}) {
		t.Errorf("lookups of %v keys, want every key, then the held one before and after the wait", sizes)
	}
	refits := func() (n int) {
		for _, td := range rec.Traces() {
			for _, sp := range td.Spans {
				if sp.Name == "search.refit" {
					n++
				}
			}
		}
		return n
	}
	if n := refits(); n != 0 {
		t.Errorf("%d refit spans after the search, want none", n)
	}
	if _, err := res.FitBest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := refits(); n != 1 {
		t.Errorf("%d refit spans after FitBest, want one", n)
	}
}

// TestSearchDeferredLookupFindsPublished: a unit a peer held when this
// client asked for it, and published before this client ran out of other
// work, is a cache hit at the first lookup over the deferred keys, with no
// wait.
func TestSearchDeferredLookupFindsPublished(t *testing.T) {
	ds := regDS(t, 100)
	st := newMemBatchStore("peer")
	ref, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	// Hold back one result: the peer still has it claimed when "me"
	// asks, and publishes it while "me" computes the unit it was granted.
	opts := batchOpts(st)
	opts.Parallelism = 1
	held := batchKey(ds, ref.Units[0].Spec)
	st.mu.Lock()
	heldScore, ok := st.scores[held]
	if !ok {
		t.Fatalf("no score under %q", held)
	}
	delete(st.scores, held)
	st.claimed[held] = "peer"
	delete(st.scores, batchKey(ds, ref.Units[3].Spec))
	st.clientID = "me"
	st.mu.Unlock()
	base := opts.Scorer.Fn
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		st.mu.Lock()
		st.scores[held] = heldScore
		delete(st.claimed, held)
		st.mu.Unlock()
		return base(y, yhat)
	}
	res, err := core.Search(context.Background(), degradedGraph(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 1 || res.CacheHits != 3 || res.Skipped != 0 {
		t.Fatalf("computed=%d cache=%d skipped=%d, want the held unit read back as a hit",
			res.Computed, res.CacheHits, res.Skipped)
	}
	if res.Best == nil || res.Best.Spec != ref.Best.Spec || res.Best.Mean != ref.Best.Mean {
		t.Fatalf("best %+v, want the peer's %+v", res.Best, ref.Best)
	}
}

// maxClaimCalls is the most ClaimBatch round trips a search over units
// misses may make: one per worker-ful of units, plus one.
func maxClaimCalls(units, parallelism int) int {
	return (units+parallelism-1)/parallelism + 1
}

// windowGraph is 18 cheap units: 3 scalers x (linreg + knn at 5 values of k).
func windowGraph() (*core.Graph, map[string][]float64) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	return g, map[string][]float64{"knn__k": {1, 2, 3, 4, 5}}
}

// TestSearchClaimWindowBounds: a client never holds more than
// (claimAhead + 1) x Parallelism claims — the ready window plus the units
// being computed — however many units it has to go; it looks up once and
// claims in at most one call per worker-ful of units; and a search that
// finds every unit published looks up once and claims nothing. The
// window counter and the held-claims gauge follow.
func TestSearchClaimWindowBounds(t *testing.T) {
	ds := regDS(t, 100)
	windows := obs.GetCounter("coda_search_claim_windows_total")
	heldGauge := obs.GetGauge("coda_search_claims_held")
	for _, par := range []int{1, 2, 3} {
		st := newMemBatchStore("alice")
		g, grid := windowGraph()
		opts := batchOpts(st)
		opts.Parallelism = par
		opts.ParamGrid = grid
		// Every publish happens while the claim it retires is still held.
		var minGauge atomic.Int64
		minGauge.Store(1)
		base := opts.Scorer.Fn
		gauge0 := heldGauge.Value()
		opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
			if heldGauge.Value() < gauge0+1 {
				minGauge.Store(0)
			}
			return base(y, yhat)
		}
		windows0 := windows.Value()
		res, err := core.Search(context.Background(), g, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		units := len(res.Units)
		if units != 18 || res.Computed != units {
			t.Fatalf("parallelism %d: computed %d of %d units, want all 18", par, res.Computed, units)
		}
		if bound := (core.ClaimAhead + 1) * par; st.maxHeld > bound || st.maxHeld < par {
			t.Errorf("parallelism %d: %d claims held at once, want %d..%d", par, st.maxHeld, par, bound)
		}
		if st.lookupBatches != 1 || st.claimBatches > maxClaimCalls(units, par) {
			t.Errorf("parallelism %d: %d lookups and %d claim calls, want 1 and at most %d",
				par, st.lookupBatches, st.claimBatches, maxClaimCalls(units, par))
		}
		if got := windows.Value() - windows0; got != int64(st.claimBatches) {
			t.Errorf("parallelism %d: coda_search_claim_windows_total moved by %d over %d claim calls", par, got, st.claimBatches)
		}
		if minGauge.Load() == 0 || heldGauge.Value() != gauge0 {
			t.Errorf("parallelism %d: coda_search_claims_held read below 1 during a fold fit (%v) or did not return to %v (now %v)",
				par, minGauge.Load() == 0, gauge0, heldGauge.Value())
		}
		if len(st.claimed) != 0 {
			t.Errorf("parallelism %d: %d claims outstanding after a clean search", par, len(st.claimed))
		}

		g, _ = windowGraph()
		warm, err := core.Search(context.Background(), g, ds, opts)
		if err != nil {
			t.Fatal(err)
		}
		if warm.CacheHits != units || st.lookupBatches != 2 || windows.Value()-windows0 != int64(st.claimBatches) {
			t.Errorf("parallelism %d: all-hit search: %d hits, %d lookups, %d claim calls; want %d, 1, 0",
				par, warm.CacheHits, st.lookupBatches-1, windows.Value()-windows0-int64(st.claimBatches), units)
		}
	}
}

// TestSearchBatchLookupFailureDegrades: a failed bulk lookup degrades
// the whole search to local computation — one failed call, not 3×units.
func TestSearchBatchLookupFailureDegrades(t *testing.T) {
	ds := regDS(t, 80)
	st := newMemBatchStore("alice")
	st.failLookupBatch = true
	res, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatalf("search must degrade, not fail: %v", err)
	}
	if res.Computed != 4 || res.Degraded != 4 || res.Best == nil {
		t.Fatalf("computed=%d degraded=%d best=%v, want full local degradation", res.Computed, res.Degraded, res.Best)
	}
	if st.lookupBatches != 1 || st.claimBatches != 0 {
		t.Fatalf("calls lookupBatch=%d claimBatch=%d, want one failed bulk call total",
			st.lookupBatches, st.claimBatches)
	}
	if st.pubs != 0 {
		t.Fatalf("pubs=%d, degraded units must not publish", st.pubs)
	}
}

// TestSearchBatchClaimFailureDegrades: cached units still come from the
// bulk lookup; the rest degrade when the bulk claim fails.
func TestSearchBatchClaimFailureDegrades(t *testing.T) {
	ds := regDS(t, 80)
	st := newMemBatchStore("alice")
	if _, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st)); err != nil {
		t.Fatal(err)
	}
	// Drop half the cache and fail future claim batches.
	st.mu.Lock()
	dropped := 0
	for k := range st.scores {
		if dropped < 2 {
			delete(st.scores, k)
			dropped++
		}
	}
	st.failClaimBatch = true
	st.mu.Unlock()

	res, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatalf("search must degrade, not fail: %v", err)
	}
	if res.CacheHits != 2 || res.Computed != 2 || res.Degraded != 2 {
		t.Fatalf("cache=%d computed=%d degraded=%d, want cached units intact and the rest degraded",
			res.CacheHits, res.Computed, res.Degraded)
	}
}

// TestSearchCancelledReleasesBatchClaims: a cancelled batched search
// must not leak its bulk-granted claims until TTL.
func TestSearchCancelledReleasesBatchClaims(t *testing.T) {
	ds := regDS(t, 80)
	st := newMemBatchStore("alice")
	ctx, cancel := context.WithCancel(context.Background())
	opts := batchOpts(st)
	// Cancel from inside the first scorer call so claims are already
	// bulk-granted but most units never publish.
	base := opts.Scorer.Fn
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		cancel()
		return base(y, yhat)
	}
	if _, err := core.Search(ctx, degradedGraph(), ds, opts); err == nil {
		t.Fatal("want cancellation error")
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.claimed) != 0 {
		t.Fatalf("%d claims leaked by a cancelled search", len(st.claimed))
	}
}

// TestSearchMissesUntaggedRecords: a record keyed with the eval spec a build
// before the numerics tag wrote — same folds, metric and seed, no
// "|numerics=" — is a miss, so a durable DARR filled by an older build is
// recomputed, never mixed into this build's scores. So is one tagged with the
// previous numerics, 2, from before trees grew on presorted columns.
func TestSearchMissesUntaggedRecords(t *testing.T) {
	ds := regDS(t, 100)
	st := newMemBatchStore("me")
	ref, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	const stale = -1.0
	st.mu.Lock()
	clear(st.scores)
	for _, u := range ref.Units {
		for _, spec := range []string{"kfold(k=3,shuffle=true)|rmse|seed=5", "kfold(k=3,shuffle=true)|rmse|seed=5|numerics=2"} {
			st.scores[core.UnitKey(ds.Fingerprint(), u.Spec, spec)] = stale
		}
	}
	st.mu.Unlock()
	res, err := core.Search(context.Background(), degradedGraph(), ds, batchOpts(st))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != 0 || res.Computed != len(ref.Units) {
		t.Fatalf("computed=%d cache=%d, want all %d units computed", res.Computed, res.CacheHits, len(ref.Units))
	}
	for _, u := range res.Units {
		if u.Mean == stale {
			t.Fatalf("%s scored %v: an untagged record was read", u.Spec, u.Mean)
		}
	}
}
