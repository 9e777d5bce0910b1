package core_test

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/mlmodels"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
)

// divisionGraph is 21 cheap units: 3 scalers x (linreg + knn at 3 values
// of k + a tree at 3 depths) — more than four clients can hold claims on
// at once, so every one of them finds open work.
func divisionGraph() (*core.Graph, map[string][]float64) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(
		mlmodels.NewLinearRegression(),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
	)
	return g, map[string][]float64{"knn__k": {3, 5, 7}, "decisiontree__max_depth": {2, 4, 6}}
}

const divisionUnits = 21

// fleetOpts is what every client of a fleet searches with: the batch
// tests' options at two workers, over divisionGraph's grid.
func fleetOpts(store core.ResultStore) core.SearchOptions {
	o := batchOpts(store)
	o.Parallelism = 2
	return o
}

func darrClient(repo *darr.Repo, id string) *darr.Client {
	return &darr.Client{Repo: repo, ClientID: id, Metric: "rmse"}
}

// runFleet makes one divisionGraph search per entry of opts, all at once
// but client c starting c x stagger after the first, and returns the
// results in the same order.
func runFleet(t *testing.T, ds *dataset.Dataset, opts []core.SearchOptions, stagger time.Duration) []*core.SearchResult {
	t.Helper()
	results := make([]*core.SearchResult, len(opts))
	var wg sync.WaitGroup
	for c, o := range opts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			time.Sleep(time.Duration(c) * stagger)
			g, grid := divisionGraph()
			o.ParamGrid = grid
			res, err := core.Search(context.Background(), g, ds, o)
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				res = &core.SearchResult{}
			}
			results[c] = res
		}()
	}
	wg.Wait()
	return results
}

// wholeTable fails unless every result scores every unit, with nothing
// skipped, and returns the units the fleet computed.
func wholeTable(t *testing.T, results []*core.SearchResult) (computed int) {
	t.Helper()
	for c, res := range results {
		if res.Computed+res.CacheHits != divisionUnits || res.Skipped != 0 || res.Best == nil {
			t.Errorf("client %d: computed %d, hits %d, skipped %d, best %v; want all %d units scored",
				c, res.Computed, res.CacheHits, res.Skipped, res.Best, divisionUnits)
		}
		computed += res.Computed
	}
	return computed
}

// TestCooperativeFleetAvoidsRedundantWork: four staggered clients on one
// DARR compute every unit once between them, and each ends with the whole
// table.
func TestCooperativeFleetAvoidsRedundantWork(t *testing.T) {
	ds := regDS(t, 120)
	repo := darr.NewRepo(nil, time.Minute)
	opts := make([]core.SearchOptions, 4)
	for c := range opts {
		opts[c] = fleetOpts(darrClient(repo, fmt.Sprint("client-", c)))
	}
	computed := wholeTable(t, runFleet(t, ds, opts, 20*time.Millisecond))
	if _, _, puts := repo.Stats(); computed != divisionUnits || puts != divisionUnits || repo.Len() != divisionUnits {
		t.Fatalf("fleet computed %d units, published %d, DARR holds %d; want %d each", computed, puts, repo.Len(), divisionUnits)
	}
}

// TestIndependentFleetDuplicatesWork: without a DARR every client computes
// every unit — the redundancy the paper's design removes.
func TestIndependentFleetDuplicatesWork(t *testing.T) {
	ds := regDS(t, 120)
	opts := []core.SearchOptions{fleetOpts(nil), fleetOpts(nil), fleetOpts(nil)}
	if computed := wholeTable(t, runFleet(t, ds, opts, 0)); computed != 3*divisionUnits {
		t.Fatalf("independent fleet computed %d, want %d", computed, 3*divisionUnits)
	}
}

// TestFleetAgreesOnBest: staggered clients read later units from the
// DARR, and every client picks the store-free search's winner, bit for bit.
func TestFleetAgreesOnBest(t *testing.T) {
	ds := regDS(t, 120)
	ref := runFleet(t, ds, []core.SearchOptions{fleetOpts(nil)}, 0)[0]
	repo := darr.NewRepo(nil, time.Minute)
	opts := make([]core.SearchOptions, 3)
	for c := range opts {
		opts[c] = fleetOpts(darrClient(repo, fmt.Sprint("client-", c)))
	}
	results := runFleet(t, ds, opts, 30*time.Millisecond)
	wholeTable(t, results)
	if last := results[len(results)-1]; last.CacheHits == 0 {
		t.Error("the last client to arrive read nothing from the DARR")
	}
	for c, res := range results {
		if !sameBestBits(res, ref) {
			t.Errorf("client %d best %v, store-free search %v", c, res.Best, ref.Best)
		}
	}
}

// grantSignal is a darr.Client that reports its first granted claim.
type grantSignal struct {
	*darr.Client
	once    sync.Once
	granted func()
}

func (g *grantSignal) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	out, err := g.Client.ClaimBatch(ctx, keys)
	for _, ok := range out {
		if ok {
			g.once.Do(g.granted)
			break
		}
	}
	return out, err
}

// TestClaimWindowDividesWork: with a claim window no client can take the
// whole grid before its peers arrive. Every client's first fold fit is
// held until every client has been granted a window; then each client's
// one search computes something and waits for the rest, the fleet computes
// every unit exactly once, and every client ends with the same table.
func TestClaimWindowDividesWork(t *testing.T) {
	ds := regDS(t, 120)
	for _, clients := range []int{2, 4} {
		t.Run(fmt.Sprint(clients, "-clients"), func(t *testing.T) {
			repo := darr.NewRepo(nil, time.Minute)
			var waiting atomic.Int32
			waiting.Store(int32(clients))
			everyoneGranted := make(chan struct{})
			opts := make([]core.SearchOptions, clients)
			for c := range opts {
				o := fleetOpts(&grantSignal{
					Client: darrClient(repo, fmt.Sprint("client-", c)),
					granted: func() {
						if waiting.Add(-1) == 0 {
							close(everyoneGranted)
						}
					},
				})
				o.Parallelism = 1
				base := o.Scorer.Fn
				o.Scorer.Fn = func(y, yhat []float64) (float64, error) {
					<-everyoneGranted
					return base(y, yhat)
				}
				opts[c] = o
			}
			results := runFleet(t, ds, opts, 0)
			for c, res := range results {
				if res.Computed < 1 {
					t.Errorf("client %d computed nothing (cache hits %d)", c, res.CacheHits)
				}
				if !sameBestBits(res, results[0]) {
					t.Errorf("client %d best %v, client 0 %v", c, res.Best, results[0].Best)
				}
			}
			if computed := wholeTable(t, results); computed != divisionUnits || repo.Len() != divisionUnits {
				t.Fatalf("fleet computed %d units, DARR holds %d, want %d each", computed, repo.Len(), divisionUnits)
			}
			if n := repo.ActiveClaims(); n != 0 {
				t.Errorf("%d claims outstanding after every client finished", n)
			}
		})
	}
}

// deadClient is a darr.Client whose process dies mid-search: the search is
// cancelled from its first fold fit and, when silent, none of its
// releases reach the repository. It remembers the keys it was granted
// (claims are asked for on the search's dispatch goroutine only).
type deadClient struct {
	*darr.Client
	silent  bool
	granted []string
}

func (d *deadClient) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	out, err := d.Client.ClaimBatch(ctx, keys)
	for k, ok := range out {
		if ok {
			d.granted = append(d.granted, k)
		}
	}
	return out, err
}

func (d *deadClient) Release(ctx context.Context, key string) error {
	if d.silent {
		return nil
	}
	return d.Client.Release(ctx, key)
}

// TestDeadPeerCostsAtMostItsWindow: a client cancelled mid-window releases
// the claims it holds; one killed before it could leaves a window's worth
// behind, which blocks a peer for the claim TTL and no longer — the peer's
// one search waits them out and computes exactly those units besides the
// open ones, and no unit is ever computed twice.
func TestDeadPeerCostsAtMostItsWindow(t *testing.T) {
	ds := regDS(t, 120)
	for _, silent := range []bool{false, true} {
		t.Run(fmt.Sprint("silent=", silent), func(t *testing.T) {
			repo := darr.NewRepo(nil, 50*time.Millisecond)
			search := func(ctx context.Context, store core.ResultStore, scorer func(y, yhat []float64) (float64, error)) (*core.SearchResult, error) {
				g, grid := divisionGraph()
				o := fleetOpts(store)
				o.ParamGrid = grid
				if scorer != nil {
					o.Scorer.Fn = scorer
				}
				return core.Search(ctx, g, ds, o)
			}

			ctx, die := context.WithCancel(context.Background())
			dead := &deadClient{Client: darrClient(repo, "dead"), silent: silent}
			base := fleetOpts(nil).Scorer.Fn
			if _, err := search(ctx, dead, func(y, yhat []float64) (float64, error) {
				die()
				return base(y, yhat)
			}); err == nil {
				t.Fatal("want the cancelled search to fail")
			}
			done := repo.Len()
			var left []string // what the dead client holds: granted, never published
			for _, k := range dead.granted {
				if _, ok := repo.GetBatch([]string{k})[k]; !ok {
					left = append(left, k)
				}
			}
			if !silent {
				if n := repo.ActiveClaims(); n != 0 {
					t.Fatalf("a cancelled search leaked %d claims", n)
				}
				left = nil
			} else if window := (core.ClaimAhead + 1) * 2; len(left) < 1 || len(left) > window {
				t.Fatalf("the killed client left %d claims, want 1..%d (one window)", len(left), window)
			}

			res, err := search(context.Background(), darrClient(repo, "peer"), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Computed != divisionUnits-done || res.CacheHits != done || res.Skipped != 0 {
				t.Fatalf("peer beside the dead client's claims: computed %d hits %d skipped %d, want %d, %d, 0",
					res.Computed, res.CacheHits, res.Skipped, divisionUnits-done, done)
			}
			for _, k := range left {
				if rec := repo.GetBatch([]string{k})[k]; rec.ClientID != "peer" {
					t.Errorf("a unit the dead client held was not computed by the peer: %q", rec.ClientID)
				}
			}
			if _, _, puts := repo.Stats(); puts != divisionUnits || repo.Len() != divisionUnits {
				t.Fatalf("%d publishes for %d records and %d units: redundancy must be 1", puts, repo.Len(), divisionUnits)
			}
		})
	}
}

// joinerStore is a client's HTTP store that reports its first lookup after
// a flush: the search's lookup over the keys a peer holds.
type joinerStore struct {
	*httpapi.Client
	flushed  atomic.Bool
	once     sync.Once
	deferred func()
}

func (j *joinerStore) Flush(ctx context.Context) error {
	j.flushed.Store(true)
	return j.Client.Flush(ctx)
}

func (j *joinerStore) LookupBatch(ctx context.Context, keys []string) (map[string]float64, error) {
	out, err := j.Client.LookupBatch(ctx, keys)
	if j.flushed.Load() {
		j.once.Do(j.deferred)
	}
	return out, err
}

// countSpans counts, in every trace rec holds whose root span is named
// root, the spans named name: one count per trace.
func countSpans(t *testing.T, rec *trace.Recorder, root, name string) []int {
	t.Helper()
	var counts []int
	for _, td := range rec.Traces() {
		if td.Root.Name != root {
			continue
		}
		n := 0
		for _, sp := range td.Spans {
			if sp.Name == name {
				n++
			}
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		t.Fatalf("no %s trace recorded", root)
	}
	return counts
}

// timedPublisher is a client's HTTP store that notes when each Publish
// returned.
type timedPublisher struct {
	*httpapi.Client
	last atomic.Int64 // Unix ns of the latest Publish's return
}

func (p *timedPublisher) Publish(ctx context.Context, key string, score float64, explanation string) error {
	err := p.Client.Publish(ctx, key, score, explanation)
	p.last.Store(time.Now().UnixNano())
	return err
}

// noWait hides a store's Wait, as a decorator that forwards only the
// ResultStore and Flusher methods does: a search over it re-checks on its
// timer.
type noWait struct {
	core.ResultStore
	core.Flusher
}

// TestSearchFinishesWhatItJoined: a client that joins while a peer holds
// claims defers those units and waits until the peer has published them.
// Its HTTP store is a Waiter, so it ends within a few ms of the peer's
// last publish; behind a store that hides Wait, it looks them up again
// every RecheckInterval instead. One search call each, both clients end
// with the whole table and the same winner. The first client's fold fits
// are held until the joiner's lookup over the deferred keys has been
// answered, so the joiner must wait.
func TestSearchFinishesWhatItJoined(t *testing.T) {
	for _, hide := range []bool{false, true} {
		name := map[bool]string{false: "wait", true: "timer"}[hide]
		t.Run(name, func(t *testing.T) { searchFinishesWhatItJoined(t, hide) })
	}
}

func searchFinishesWhatItJoined(t *testing.T, hideWait bool) {
	ds := regDS(t, 80)
	ts := httptest.NewServer(httpapi.NewServer(darr.NewRepo(nil, time.Minute), nil))
	defer ts.Close()
	client := func(id string) *httpapi.Client {
		c := httpapi.NewClient(ts.URL, id)
		c.Metric = "rmse"
		return c
	}
	firstHolds := make(chan struct{})   // the first client has been granted its window
	joinerLooked := make(chan struct{}) // the joiner has looked the deferred keys up
	publisher := &timedPublisher{Client: client("first")}
	first := batchOpts(publisher)
	first.Parallelism = 1
	var once sync.Once
	base := first.Scorer.Fn
	first.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		once.Do(func() { close(firstHolds) })
		<-joinerLooked
		return base(y, yhat)
	}
	js := &joinerStore{Client: client("joiner"), deferred: func() { close(joinerLooked) }}
	joiner := batchOpts(js)
	if hideWait {
		joiner.Store = noWait{js, js}
	}
	joiner.Parallelism = 1

	var a, b *core.SearchResult
	var joinerWall time.Duration
	var joinerEnd time.Time
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, errA = core.Search(context.Background(), degradedGraph(), ds, first)
	}()
	<-firstHolds
	rec := trace.NewRecorder(64)
	defer trace.SetDefaultRecorder(trace.SetDefaultRecorder(rec))
	go func() {
		defer wg.Done()
		start := time.Now()
		b, errB = core.Search(context.Background(), degradedGraph(), ds, joiner)
		joinerEnd = time.Now()
		joinerWall = joinerEnd.Sub(start)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("first: %v, joiner: %v", errA, errB)
	}
	const units = 4
	for name, res := range map[string]*core.SearchResult{"first": a, "joiner": b} {
		if res.Skipped != 0 || res.Computed+res.CacheHits != units || res.Best == nil {
			t.Fatalf("%s ended with computed %d, hits %d, skipped %d, best %v; want all %d units scored",
				name, res.Computed, res.CacheHits, res.Skipped, res.Best, units)
		}
	}
	if a.Computed < 1 || b.Computed < 1 || a.Computed+b.Computed != units {
		t.Errorf("first computed %d, joiner %d; want both at work and %d in all", a.Computed, b.Computed, units)
	}
	if !sameBestBits(a, b) {
		t.Errorf("first serves %v, joiner %v", a.Best, b.Best)
	}
	if waits := countSpans(t, rec, "search", "search.wait"); slices.Max(waits) < 1 {
		t.Errorf("waits per search %v, want the joiner's wait on its peer", waits)
	}
	if hideWait {
		if joinerWall < core.RecheckInterval {
			t.Errorf("the joiner finished in %v: it never waited a re-check interval for its peer", joinerWall)
		}
	} else if late := joinerEnd.Sub(time.Unix(0, publisher.last.Load())); late > core.RecheckInterval/5 {
		t.Errorf("the joiner ended %v after its peer's last publish, want within a few ms: it did not wake on the publish", late)
	}
	for _, refits := range countSpans(t, rec, "search", "search.refit") {
		if refits != 0 {
			t.Errorf("a search fitted its winner %d times, want never", refits)
		}
	}
	for _, res := range []*core.SearchResult{a, b} {
		if _, err := res.FitBest(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if fits := countSpans(t, rec, "search.refit", "search.refit"); len(fits) != 2 || fits[0] != 1 || fits[1] != 1 {
		t.Errorf("FitBest traces hold %v refit spans, want one per call", fits)
	}
}

// failingWaiter is an in-process DARR client whose Wait always fails, as a
// remote one does against a server without the wait route; the first call
// runs onWait.
type failingWaiter struct {
	*darr.Client
	calls  atomic.Int32
	onWait func()
}

func (f *failingWaiter) Wait(context.Context, []string) error {
	if f.calls.Add(1) == 1 && f.onWait != nil {
		f.onWait()
	}
	return errors.New("the server has no wait route")
}

// TestFailedWaitFallsBackToTimer: a Wait that fails is not a give-up. The
// joiner waits on the units its peer holds, its Wait fails, and it
// re-checks after RecheckInterval instead of skipping them; the peer,
// held until that first Wait, has published by then. Both clients end
// with the whole table and every unit computed once.
func TestFailedWaitFallsBackToTimer(t *testing.T) {
	ds := regDS(t, 80)
	repo := darr.NewRepo(nil, time.Minute)
	peerHolds, released := make(chan struct{}), make(chan struct{})
	peer := batchOpts(&failingWaiter{Client: darrClient(repo, "peer")})
	peer.Parallelism = 1
	var once sync.Once
	base := peer.Scorer.Fn
	peer.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		once.Do(func() { close(peerHolds) })
		<-released
		return base(y, yhat)
	}
	js := &failingWaiter{Client: darrClient(repo, "joiner"), onWait: func() { close(released) }}
	joiner := batchOpts(js)
	joiner.Parallelism = 1

	var a, b *core.SearchResult
	var errA, errB error
	var joinerWall time.Duration
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, errA = core.Search(context.Background(), degradedGraph(), ds, peer)
	}()
	<-peerHolds
	go func() {
		defer wg.Done()
		start := time.Now()
		b, errB = core.Search(context.Background(), degradedGraph(), ds, joiner)
		joinerWall = time.Since(start)
	}()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("peer: %v, joiner: %v", errA, errB)
	}
	const units = 4
	for name, res := range map[string]*core.SearchResult{"peer": a, "joiner": b} {
		if res.Skipped != 0 || res.Computed+res.CacheHits != units {
			t.Fatalf("%s ended with computed %d, hits %d, skipped %d; want all %d units scored, none skipped",
				name, res.Computed, res.CacheHits, res.Skipped, units)
		}
	}
	if js.calls.Load() == 0 || joinerWall < core.RecheckInterval {
		t.Errorf("the joiner called Wait %d times and ended in %v; want a failed Wait and a re-check interval",
			js.calls.Load(), joinerWall)
	}
	if _, _, puts := repo.Stats(); a.Computed+b.Computed != units || puts != units {
		t.Errorf("peer computed %d, joiner %d, %d publishes; want %d units computed once", a.Computed, b.Computed, puts, units)
	}
}

// TestRecheckIntervalIsPublishFlushInterval: a store without Wait is
// re-checked every publish-flush interval, so a result a peer has queued,
// and not yet flushed, when the search looks it up is visible by the
// first re-check: at most one wait, and every unit a hit.
func TestRecheckIntervalIsPublishFlushInterval(t *testing.T) {
	if core.RecheckInterval != httpapi.DefaultPublishFlushInterval {
		t.Fatalf("core re-checks every %v, the publish queue flushes every %v", core.RecheckInterval, httpapi.DefaultPublishFlushInterval)
	}
	ds := regDS(t, 80)
	ctx := context.Background()
	ref, err := core.Search(ctx, degradedGraph(), ds, batchOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(httpapi.NewServer(darr.NewRepo(nil, time.Minute), nil))
	defer ts.Close()
	peer := httpapi.NewClient(ts.URL, "peer")
	peer.Metric = "rmse"
	peer.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
	defer peer.Close()
	keys := make([]string, len(ref.Units))
	for i, u := range ref.Units {
		keys[i] = batchKey(ds, u.Spec)
	}
	if _, err := peer.ClaimBatch(ctx, keys); err != nil {
		t.Fatal(err)
	}
	for i, u := range ref.Units {
		if err := peer.Publish(ctx, keys[i], u.Mean, ""); err != nil {
			t.Fatal(err)
		}
	}
	// The search looks up a fifth of an interval after the queue took the
	// records, well before its first timed flush.
	time.Sleep(core.RecheckInterval / 5)
	rec := trace.NewRecorder(64)
	defer trace.SetDefaultRecorder(trace.SetDefaultRecorder(rec))
	me := httpapi.NewClient(ts.URL, "me")
	me.Metric = "rmse"
	res, err := core.Search(ctx, degradedGraph(), ds, batchOpts(noWait{me, me}))
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheHits != len(keys) || res.Computed != 0 || res.Skipped != 0 {
		t.Fatalf("computed %d, hits %d, skipped %d; want every unit the peer's hit", res.Computed, res.CacheHits, res.Skipped)
	}
	// Zero waits is a search that started after the timed flush.
	if waits := countSpans(t, rec, "search", "search.wait"); len(waits) != 1 || waits[0] > 1 {
		t.Fatalf("waits per search %v, want one search that saw the queued records by its first re-check", waits)
	}
}
