package httpapi

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/store"
)

var _ core.ResultStore = (*Client)(nil)

func newTestServer(t *testing.T) (*Client, *darr.Repo, store.ObjectStore, *httptest.Server) {
	t.Helper()
	repo := darr.NewRepo(nil, time.Minute)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	ts := httptest.NewServer(NewServer(repo, hs))
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, "test-client"), repo, hs, ts
}

func TestHealthz(t *testing.T) {
	_, _, _, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}

func TestDARROverHTTP(t *testing.T) {
	client, _, _, _ := newTestServer(t)
	ctx := context.Background()
	key := core.UnitKey("fp1", "input -> noop -> knn(k=5)", "kfold(k=3,shuffle=true)|rmse|seed=1")

	if _, ok, err := client.Lookup(ctx, key); err != nil || ok {
		t.Fatalf("lookup on empty repo: ok=%v err=%v", ok, err)
	}
	granted, err := client.Claim(ctx, key)
	if err != nil || !granted {
		t.Fatalf("claim: %v %v", granted, err)
	}
	other := NewClient(client.BaseURL, "other-client")
	granted, err = other.Claim(ctx, key)
	if err != nil || granted {
		t.Fatalf("second client claim should be denied: %v %v", granted, err)
	}
	if err := client.Publish(ctx, key, 3.5, "explained"); err != nil {
		t.Fatal(err)
	}
	score, ok, err := other.Lookup(ctx, key)
	if err != nil || !ok || score != 3.5 {
		t.Fatalf("lookup after publish: %v %v %v", score, ok, err)
	}
	recs, err := client.QueryByDataset(ctx, "fp1")
	if err != nil || len(recs) != 1 {
		t.Fatalf("query: %d records, err %v", len(recs), err)
	}
	if recs[0].PipelineSpec != "input -> noop -> knn(k=5)" {
		t.Fatalf("record spec %q", recs[0].PipelineSpec)
	}
	// Release path.
	key2 := core.UnitKey("fp1", "spec2", "eval")
	if g, _ := client.Claim(ctx, key2); !g {
		t.Fatal("claim key2")
	}
	if err := client.Release(ctx, key2); err != nil {
		t.Fatal(err)
	}
	if g, _ := other.Claim(ctx, key2); !g {
		t.Fatal("released claim should be grantable")
	}
}

func TestObjectSyncOverHTTP(t *testing.T) {
	client, _, _, _ := newTestServer(t)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	v1 := make([]byte, 8192)
	rng.Read(v1)
	ver, err := client.PutObject(ctx, "sensor-data", v1)
	if err != nil || ver != 1 {
		t.Fatalf("put: %d %v", ver, err)
	}
	rep := store.NewReplica()
	if err := client.PullObject(ctx, rep, "sensor-data"); err != nil {
		t.Fatal(err)
	}
	got, ok := rep.Data("sensor-data")
	if !ok || !bytes.Equal(got, v1) {
		t.Fatal("first pull mismatch")
	}
	full := rep.BytesReceived()

	// Small edit: the second pull should arrive as a delta.
	v2 := append([]byte(nil), v1...)
	v2[100] ^= 0xff
	if _, err := client.PutObject(ctx, "sensor-data", v2); err != nil {
		t.Fatal(err)
	}
	if err := client.PullObject(ctx, rep, "sensor-data"); err != nil {
		t.Fatal(err)
	}
	got, _ = rep.Data("sensor-data")
	if !bytes.Equal(got, v2) {
		t.Fatal("delta pull mismatch")
	}
	if rep.BytesReceived()-full >= int64(len(v2))/2 {
		t.Fatalf("second pull cost %d bytes, expected a small delta", rep.BytesReceived()-full)
	}
	if rep.VersionOf("sensor-data") != 2 {
		t.Fatalf("replica version %d", rep.VersionOf("sensor-data"))
	}
	// Unknown key 404s.
	if err := client.PullObject(ctx, rep, "missing"); err == nil {
		t.Fatal("want not-found error")
	}
}

func TestBadRequests(t *testing.T) {
	_, _, _, ts := newTestServer(t)
	// Records without key or dataset.
	resp, err := http.Get(ts.URL + "/darr/records")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("records status %d", resp.StatusCode)
	}
	// Claim release with empty body fields.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/darr/claims", bytes.NewBufferString(`{}`))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("claims status %d", resp.StatusCode)
	}
	// The per-key lookup, claim and publish routes are gone: only the
	// batched protocol cooperates.
	for _, gone := range []struct{ method, path string }{
		{http.MethodGet, "/darr/records?key=fp%7Cs%7Ce"},
		{http.MethodPost, "/darr/claims"},
		{http.MethodPost, "/darr/records"},
	} {
		req, _ := http.NewRequest(gone.method, ts.URL+gone.path, bytes.NewBufferString(`{"key":"fp|s|e","client_id":"c"}`))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("%s %s answered %d, want a 4xx", gone.method, gone.path, resp.StatusCode)
		}
	}
	// Unknown object.
	resp, err = http.Get(ts.URL + "/store/objects/ghost")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("object status %d", resp.StatusCode)
	}
	// Bad method.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/darr/records", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("method status %d", resp.StatusCode)
	}
}

// TestSearchThroughHTTPStore runs a real cooperative search where the
// ResultStore is the HTTP client — the full Figure 1 + Figure 2 code path.
func TestSearchThroughHTTPStore(t *testing.T) {
	client, repo, _, _ := newTestServer(t)
	client.Metric = "rmse"

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
		Store:    client,
	}
	first, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Computed != 4 {
		t.Fatalf("first search computed %d", first.Computed)
	}
	if repo.Len() != 4 {
		t.Fatalf("remote DARR has %d records", repo.Len())
	}
	second, err := core.Search(context.Background(), build(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheHits != 4 || second.Computed != 0 {
		t.Fatalf("second search computed=%d cache=%d", second.Computed, second.CacheHits)
	}
}

func TestUnchangedPullOverHTTP(t *testing.T) {
	client, _, _, _ := newTestServer(t)
	ctx := context.Background()
	data := bytes.Repeat([]byte("x"), 8192)
	if _, err := client.PutObject(ctx, "obj", data); err != nil {
		t.Fatal(err)
	}
	rep := store.NewReplica()
	if err := client.PullObject(ctx, rep, "obj"); err != nil {
		t.Fatal(err)
	}
	before := rep.BytesReceived()
	// Second pull: already current, must be nearly free.
	if err := client.PullObject(ctx, rep, "obj"); err != nil {
		t.Fatal(err)
	}
	if cost := rep.BytesReceived() - before; cost > 64 {
		t.Fatalf("redundant HTTP pull cost %d payload bytes", cost)
	}
	got, ok := rep.Data("obj")
	if !ok || !bytes.Equal(got, data) {
		t.Fatal("replica corrupted by unchanged pull")
	}
}
