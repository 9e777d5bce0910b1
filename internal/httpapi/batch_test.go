package httpapi

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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
)

// clientFor serves a hand-built Server (e.g. with a custom MaxBatchKeys)
// and returns a client wired to it.
func clientFor(t *testing.T, srv *Server) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL, "test-client"), ts
}

// perUnitStore restricts a Client to the per-unit cooperation protocol,
// hiding the batch methods so core.Search issues one Lookup/Claim/
// Publish round trip per unit — the reference the batched protocol is
// tested and benchmarked against. Claims are still released on failure.
type perUnitStore struct{ C *Client }

func (p perUnitStore) Lookup(ctx context.Context, key string) (float64, bool, error) {
	return p.C.Lookup(ctx, key)
}

func (p perUnitStore) Claim(ctx context.Context, key string) (bool, error) {
	return p.C.Claim(ctx, key)
}

func (p perUnitStore) Publish(ctx context.Context, key string, score float64, explanation string) error {
	return p.C.Publish(ctx, key, score, explanation)
}

func (p perUnitStore) Release(ctx context.Context, key string) error {
	return p.C.Release(ctx, key)
}

var (
	_ core.BatchResultStore = (*Client)(nil)
	_ core.Flusher          = (*Client)(nil)
	_ core.ResultStore      = perUnitStore{}
	_ core.ClaimReleaser    = perUnitStore{}
)

// perUnitStore must NOT satisfy the batch interface, or the A/B baseline
// silently becomes the batched protocol.
var _ = func() bool {
	var s any = perUnitStore{}
	if _, ok := s.(core.BatchResultStore); ok {
		panic("perUnitStore must not implement BatchResultStore")
	}
	return true
}()

func TestBatchEndpointsRoundTrip(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()
	keys := []string{"fp|s1|e", "fp|s2|e", "fp|s3|e"}

	scores, err := c.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 0 {
		t.Fatalf("LookupBatch on empty repo = %v, %v", scores, err)
	}
	granted, err := c.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !granted[k] {
			t.Fatalf("claim for %q denied on empty repo: %v", k, granted)
		}
	}
	// A second client is denied all three in one round trip.
	c2 := NewClient(c.BaseURL, "rival")
	denied, err := c2.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if denied[k] {
			t.Fatalf("rival stole claim for %q", k)
		}
	}

	recs := make([]darr.Record, len(keys))
	for i, k := range keys {
		recs[i] = darr.Record{Key: k, DatasetFP: "fp", Score: float64(i)}
	}
	if err := c.PublishBatch(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 3 || repo.ActiveClaims() != 0 {
		t.Fatalf("records=%d claims=%d after batch publish", repo.Len(), repo.ActiveClaims())
	}
	scores, err = c2.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 3 || scores[keys[2]] != 2 {
		t.Fatalf("LookupBatch after publish = %v, %v", scores, err)
	}
}

func TestBatchEndpointRejectsOversizedAndEmpty(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	srv := NewServer(repo, nil)
	srv.MaxBatchKeys = 2
	c, ts := clientFor(t, srv)
	defer ts.Close()
	ctx := context.Background()

	if _, err := c.LookupBatch(ctx, []string{"a", "b", "c"}); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("oversized batch error = %v, want 400", err)
	}
	if _, err := c.LookupBatch(ctx, nil); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	if _, err := c.ClaimBatch(ctx, []string{"a", "b", "c"}); err == nil {
		t.Fatal("oversized claim batch must be rejected")
	}
	// client_id is required for claims.
	anon := NewClient(c.BaseURL, "")
	if _, err := anon.ClaimBatch(ctx, []string{"a"}); err == nil {
		t.Fatal("claim batch without client_id must be rejected")
	}
}

// TestBatchCallsSplitAtTheServerCap: a batch larger than the server's
// default cap goes out as several requests and comes back as one answer
// (it was one request, a 400, and a search that silently stopped
// cooperating), so a grid of more than 1024 units still runs the
// cooperation protocol.
func TestBatchCallsSplitAtTheServerCap(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	var lookups, claims, publishes atomic.Int32
	api := NewServer(repo, nil)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/darr/batch/lookup":
			lookups.Add(1)
		case "/darr/batch/claims":
			claims.Add(1)
		case "/darr/batch/records":
			publishes.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "big")
	ctx := context.Background()

	keys := make([]string, 2500)
	recs := make([]darr.Record, len(keys))
	for i := range keys {
		keys[i] = core.UnitKey("fp", fmt.Sprintf("input -> noop -> linreg(alpha=%d)", i), "kfold(k=3)|rmse|seed=1")
		recs[i] = c.record(keys[i], float64(i), "")
	}
	granted, err := c.ClaimBatch(ctx, keys)
	if err != nil || len(granted) != len(keys) || claims.Load() != 3 {
		t.Errorf("ClaimBatch over %d keys: %d decisions in %d requests, err %v; want all in 3", len(keys), len(granted), claims.Load(), err)
	}
	if err := c.PublishBatch(ctx, recs); err != nil || publishes.Load() != 3 || repo.Len() != len(keys) {
		t.Errorf("PublishBatch over %d records: %d stored in %d requests, err %v; want all in 3", len(recs), repo.Len(), publishes.Load(), err)
	}
	scores, err := c.LookupBatch(ctx, keys)
	if err != nil || lookups.Load() != 3 {
		t.Errorf("LookupBatch over %d keys: %d requests, err %v; want 3", len(keys), lookups.Load(), err)
	}
	for i, k := range keys {
		if got, ok := scores[k]; !ok || got != float64(i) {
			t.Errorf("key %d: score %v present %v, want %d", i, got, ok, i)
			break
		}
	}

	// A 1500-unit grid: the warm lookup alone is over the cap.
	lenBefore := repo.Len()
	rng := rand.New(rand.NewSource(4))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 40, Features: 3, Informative: 2, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewRidge(1))
	alphas := make([]float64, 1500)
	for i := range alphas {
		alphas[i] = float64(i+1) / 100
	}
	scorer, _ := metrics.ScorerByName("rmse")
	c.Metric = "rmse"
	res, err := core.Search(ctx, g, ds, core.SearchOptions{
		Splitter:    crossval.KFold{K: 2},
		Scorer:      scorer,
		ParamGrid:   map[string][]float64{"ridge__alpha": alphas},
		Store:       c,
		SkipClaimed: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 1500 || res.Degraded != 0 || res.Computed != 1500 {
		t.Fatalf("%d units: computed %d, degraded %d; want 1500 computed through the DARR, none degraded",
			len(res.Units), res.Computed, res.Degraded)
	}
	if got := repo.Len() - lenBefore; got != 1500 {
		t.Fatalf("the search published %d of its 1500 units", got)
	}
}

func TestPublishQueueFlushPaths(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()

	// Size-triggered: the third enqueue kicks an async flush.
	c.EnablePublishQueue(3, time.Hour)
	for i, k := range []string{"fp|a|e", "fp|b|e", "fp|c|e"} {
		if err := c.Publish(ctx, k, float64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered flush never landed; repo has %d records", repo.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Explicit Flush drains a partial batch synchronously.
	if err := c.Publish(ctx, "fp|d|e", 4, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 4 {
		t.Fatalf("repo has %d records after Flush, want 4", repo.Len())
	}

	// Close drains the remainder and is idempotent.
	if err := c.Publish(ctx, "fp|e|e", 5, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 5 {
		t.Fatalf("repo has %d records after Close, want 5", repo.Len())
	}
}

func TestPublishQueueIntervalFlush(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	c.EnablePublishQueue(1000, 10*time.Millisecond)
	defer c.Close()
	if err := c.Publish(context.Background(), "fp|tick|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishWithoutQueueIsSynchronous: a queue-less client keeps the
// per-record POST semantics.
func TestPublishWithoutQueueIsSynchronous(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	if err := c.Publish(context.Background(), "fp|sync|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Fatal("synchronous publish must land before returning")
	}
}

// TestReleaseOverHTTP: the DELETE claim path frees a key for rivals.
func TestReleaseOverHTTP(t *testing.T) {
	c, _, _, _ := newTestServer(t)
	ctx := context.Background()
	granted, err := c.Claim(ctx, "fp|r|e")
	if err != nil || !granted {
		t.Fatalf("claim = %v, %v", granted, err)
	}
	rival := NewClient(c.BaseURL, "rival")
	if g, _ := rival.Claim(ctx, "fp|r|e"); g {
		t.Fatal("rival claimed a held key")
	}
	if err := c.Release(ctx, "fp|r|e"); err != nil {
		t.Fatal(err)
	}
	if g, err := rival.Claim(ctx, "fp|r|e"); err != nil || !g {
		t.Fatalf("released key not re-claimable: %v, %v", g, err)
	}
}
