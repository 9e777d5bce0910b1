package httpapi

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/replication"
	"coda/internal/store"
)

var _ core.Waiter = (*Client)(nil)

// countingServer is srv behind a handler that counts the requests it has
// taken, those still in flight, and the batch waits among them.
type countingServer struct {
	*httptest.Server
	total, inflight, waiting atomic.Int64
}

func newCountingServer(t *testing.T, srv *Server) *countingServer {
	t.Helper()
	cs := &countingServer{}
	cs.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cs.total.Add(1)
		cs.inflight.Add(1)
		defer cs.inflight.Add(-1)
		if r.URL.Path == "/darr/batch/wait" {
			cs.waiting.Add(1)
			defer cs.waiting.Add(-1)
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(cs.Close)
	return cs
}

// until polls cond every millisecond for up to 5 s.
func until(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestClientWaitWakesOnSettle: a remote Wait on keys a peer holds is one
// request the server parks, and it returns within a few ms of the event
// that settles one of them — the peer's publish, its release, the claim's
// expiry — or of the caller's cancel, after which the server lets go too.
func TestClientWaitWakesOnSettle(t *testing.T) {
	const key, ttl = "fp|spec|eval", 300 * time.Millisecond
	keys := []string{"fp|other|eval", key}
	for _, event := range []string{"publish", "release", "expiry", "cancel"} {
		t.Run(event, func(t *testing.T) {
			repo := darr.NewRepo(nil, ttl)
			cs := newCountingServer(t, NewServer(repo, nil))
			repo.ClaimBatch(keys, "peer")
			claimed := time.Now()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() { done <- NewClient(cs.URL, "me").Wait(ctx, keys) }()
			until(t, "the wait to park", func() bool { return cs.inflight.Load() == 1 })
			var at time.Time
			switch event {
			case "publish":
				at = time.Now()
				if err := repo.Put(darr.Record{Key: key, Score: 1}); err != nil {
					t.Fatal(err)
				}
			case "release":
				at = time.Now()
				repo.Release(key, "peer")
			case "expiry":
				at = claimed.Add(ttl)
			case "cancel":
				at = time.Now()
				cancel()
			}
			select {
			case err := <-done:
				if late := time.Since(at); late < 0 || late > 100*time.Millisecond {
					t.Errorf("Wait returned %v after the %s, want within a few ms", late, event)
				}
				if want := map[bool]error{true: context.Canceled}[event == "cancel"]; !errors.Is(err, want) {
					t.Errorf("Wait = %v, want %v", err, want)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("Wait still parked 5 s after the %s", event)
			}
			until(t, "the server to let the wait go", func() bool { return cs.inflight.Load() == 0 })
			if n := cs.total.Load(); n != 1 {
				t.Errorf("the wait took %d requests, want one", n)
			}
		})
	}
}

// TestSearchWaitsOnOneRequest: a search left with nothing but the units a
// peer holds parks one request on the server and sends nothing else until
// the peer publishes; then it ends with every unit scored, none computed
// twice.
func TestSearchWaitsOnOneRequest(t *testing.T) {
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 60, Features: 3, Informative: 2, Noise: 1}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
		return g
	}
	scorer, _ := metrics.ScorerByName("rmse")
	opts := func(st core.ResultStore) core.SearchOptions {
		return core.SearchOptions{Splitter: crossval.KFold{K: 3}, Scorer: scorer, Seed: 5, Parallelism: 1,
			ParamGrid: map[string][]float64{"knn__k": {2, 3, 4}}, Store: st}
	}
	const units = 4
	repo := darr.NewRepo(nil, time.Minute)
	cs := newCountingServer(t, NewServer(repo, nil))

	// The peer, in process, holds its first window until released.
	peerHolds, released := make(chan struct{}), make(chan struct{})
	peer := opts(&darr.Client{Repo: repo, ClientID: "peer", Metric: "rmse"})
	var once sync.Once
	peer.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		once.Do(func() { close(peerHolds) })
		<-released
		return scorer.Fn(y, yhat)
	}
	me := NewClient(cs.URL, "me")
	me.Metric = "rmse"
	var a, b *core.SearchResult
	var errA, errB error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, errA = core.Search(context.Background(), build(), ds, peer)
	}()
	<-peerHolds
	go func() {
		defer wg.Done()
		b, errB = core.Search(context.Background(), build(), ds, opts(me))
	}()
	until(t, "the search to park its wait", func() bool { return cs.waiting.Load() == 1 })
	sent := cs.total.Load()
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if n, in := cs.total.Load(), cs.inflight.Load(); n != sent || in != 1 {
			t.Fatalf("a waiting search had %d requests in flight and sent %d more, want one and none", in, n-sent)
		}
	}
	close(released)
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("peer: %v, me: %v", errA, errB)
	}
	for name, res := range map[string]*core.SearchResult{"peer": a, "me": b} {
		if res.Skipped != 0 || res.Computed+res.CacheHits != units {
			t.Errorf("%s: computed %d, hits %d, skipped %d; want all %d units scored", name, res.Computed, res.CacheHits, res.Skipped, units)
		}
	}
	if _, _, puts := repo.Stats(); puts != units || a.Computed+b.Computed != units {
		t.Errorf("%d publishes, %d + %d computed; want every unit computed once", puts, a.Computed, b.Computed)
	}
}

// TestWaitAgainstOldServer: a server without the wait route answers 404,
// and Wait's error names the route, once, without retrying.
func TestWaitAgainstOldServer(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	err := NewClient(ts.URL, "me").Wait(context.Background(), []string{"k"})
	if err == nil || !strings.Contains(err.Error(), "/darr/batch/wait") || !strings.Contains(err.Error(), "upgrade servers and clients together") {
		t.Fatalf("Wait against a server without the route = %v, want an error naming the route", err)
	}
	if n := requests.Load(); n != 1 {
		t.Errorf("%d requests, want one: a 404 is not retried", n)
	}
}

// TestEndLongPollsFreesParkedRequests: EndLongPolls answers a parked DARR
// wait with 204 and closes a lease stream without its end frame, at once,
// and a wait that arrives after it is answered at once too.
func TestEndLongPollsFreesParkedRequests(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManagerWith(hs, nil, replication.Config{Workers: 1})
	t.Cleanup(m.Close)
	repo := darr.NewRepo(nil, time.Minute)
	srv := NewServer(repo, hs)
	srv.EnableLeases(m)
	cs := newCountingServer(t, srv)
	c := NewClient(cs.URL, "me")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	repo.ClaimBatch([]string{"k"}, "peer")
	lease, err := c.Subscribe(ctx, "obj", "notify", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, 2)
	go func() { errs <- c.Wait(ctx, []string{"k"}) }()
	go func() {
		err := c.StreamLease(ctx, lease.LeaseID, func(Notification) error { return nil })
		if errors.Is(err, io.ErrUnexpectedEOF) {
			err = nil
		}
		errs <- err
	}()
	until(t, "two requests to park", func() bool { return cs.inflight.Load() == 2 })
	ended := time.Now()
	srv.EndLongPolls()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Errorf("a parked request ended with %v, want a 204 or a stream with no end frame", err)
		}
	}
	if took := time.Since(ended); took > time.Second {
		t.Errorf("the parked requests took %v to end", took)
	}
	start := time.Now()
	if err := c.Wait(ctx, []string{"k"}); err != nil || time.Since(start) > time.Second {
		t.Errorf("a wait after EndLongPolls = %v after %v, want nil at once", err, time.Since(start))
	}
}
