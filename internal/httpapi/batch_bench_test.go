package httpapi

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
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

// countingProxy fronts a Server, counting requests and injecting a fixed
// per-request latency — a stand-in for the WAN between edge and cloud.
type countingProxy struct {
	requests atomic.Int64
	latency  time.Duration
	next     atomic.Pointer[Server]
}

func (p *countingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.requests.Add(1)
	if p.latency > 0 {
		time.Sleep(p.latency)
	}
	p.next.Load().ServeHTTP(w, r)
}

// reset installs a fresh repository behind the proxy and zeroes the
// request counter.
func (p *countingProxy) reset() {
	p.next.Store(NewServer(darr.NewRepo(nil, time.Minute), nil))
	p.requests.Store(0)
}

func benchGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5))
	return g
}

func benchDataset(tb testing.TB) *dataset.Dataset {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 100, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	return ds
}

// benchClient builds a bare client: no breaker, single attempt — every
// HTTP request maps 1:1 to a protocol call, so request counts are exact.
func benchClient(baseURL, id string) *Client {
	c := &Client{BaseURL: baseURL, ClientID: id, Metric: "rmse"}
	c.Retry.MaxAttempts = 1
	return c
}

func benchSearchOpts(store core.ResultStore) core.SearchOptions {
	scorer, _ := metrics.ScorerByName("rmse")
	return core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     11,
		Store:    store,
	}
}

// TestBatchedSearchRoundTrips pins the tentpole's win: a 4-unit batched
// cooperative search costs at most 5 HTTP requests (bulk lookup, bulk
// claim, coalesced publish), where the per-unit protocol costs at least
// 3 per unit (lookup + claim + publish each).
func TestBatchedSearchRoundTrips(t *testing.T) {
	proxy := &countingProxy{}
	proxy.reset()
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	ds := benchDataset(t)

	perUnit := benchClient(ts.URL, "per-unit")
	res, err := core.Search(context.Background(), benchGraph(), ds, benchSearchOpts(perUnitStore{C: perUnit}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 {
		t.Fatalf("per-unit search computed %d units", res.Computed)
	}
	perUnitReqs := proxy.requests.Load()
	if perUnitReqs < int64(3*len(res.Units)) {
		t.Fatalf("per-unit search issued %d requests, want >= 3 per unit (%d)", perUnitReqs, 3*len(res.Units))
	}

	proxy.reset()
	batched := benchClient(ts.URL, "batched")
	// A long interval and large size threshold leave the search-exit
	// Flush as the only trigger — worst case for the request count.
	batched.EnablePublishQueue(DefaultPublishBatchSize, time.Hour)
	defer batched.Close()
	res, err = core.Search(context.Background(), benchGraph(), ds, benchSearchOpts(batched))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 {
		t.Fatalf("batched search computed %d units", res.Computed)
	}
	if got := proxy.requests.Load(); got > 5 {
		t.Fatalf("batched search issued %d requests, want <= 5 (per-unit path cost %d)", got, perUnitReqs)
	}
}

// BenchmarkCooperativeSearch compares the per-unit and batched protocols
// under injected per-request latency. With a 10ms WAN, the batched
// search's 3 round trips beat the per-unit path's 3×units sequential
// calls on wall time; requests/op is reported alongside.
func BenchmarkCooperativeSearch(b *testing.B) {
	for _, bc := range []struct {
		name    string
		latency time.Duration
		batched bool
	}{
		{"per-unit/latency=10ms", 10 * time.Millisecond, false},
		{"batched/latency=10ms", 10 * time.Millisecond, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			proxy := &countingProxy{latency: bc.latency}
			proxy.reset()
			ts := httptest.NewServer(proxy)
			defer ts.Close()
			ds := benchDataset(b)

			var totalReqs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				proxy.reset() // fresh repo: every unit is a miss
				c := benchClient(ts.URL, "bench")
				var store core.ResultStore = perUnitStore{C: c}
				if bc.batched {
					c.EnablePublishQueue(DefaultPublishBatchSize, time.Hour)
					store = c
				}
				b.StartTimer()

				res, err := core.Search(context.Background(), benchGraph(), ds, benchSearchOpts(store))
				if err != nil {
					b.Fatal(err)
				}
				if res.Computed != 4 {
					b.Fatalf("computed %d units", res.Computed)
				}

				b.StopTimer()
				totalReqs += proxy.requests.Load()
				if bc.batched {
					c.Close()
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(totalReqs)/float64(b.N), "requests/op")
		})
	}
}
