package httpapi

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
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
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
)

// countingProxy fronts a Server, logging requests and injecting a fixed
// per-request latency — a stand-in for the WAN between edge and cloud.
type countingProxy struct {
	latency time.Duration
	next    atomic.Pointer[Server]

	mu    sync.Mutex
	calls []string // "METHOD /path" of every request since the last reset
}

func (p *countingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.calls = append(p.calls, r.Method+" "+r.URL.Path)
	p.mu.Unlock()
	if p.latency > 0 {
		time.Sleep(p.latency)
	}
	p.next.Load().ServeHTTP(w, r)
}

// reset installs a fresh repository behind the proxy and clears the
// request log.
func (p *countingProxy) reset() {
	p.next.Store(NewServer(darr.NewRepo(nil, time.Minute), nil))
	p.mu.Lock()
	p.calls = nil
	p.mu.Unlock()
}

// log returns the requests made since the last reset.
func (p *countingProxy) log() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Clone(p.calls)
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

// benchClient builds a bare client with a single attempt: every HTTP
// request maps 1:1 to a protocol call, so request counts are exact.
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

// TestBatchedSearchRoundTrips pins what a cooperative search costs on the
// wire: a 4-unit search makes at most 5 HTTP requests (bulk lookup, claim
// windows, coalesced publish), a claim on a unit that fails is released,
// and every request is a batch route or a claim release — no per-key
// lookup, claim or publish reaches the server.
func TestBatchedSearchRoundTrips(t *testing.T) {
	proxy := &countingProxy{}
	proxy.reset()
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	ds := benchDataset(t)
	c := benchClient(ts.URL, "batched")
	// A long interval and large size threshold leave the search-exit
	// Flush as the only trigger — worst case for the request count.
	c.EnablePublishQueue(DefaultPublishBatchSize, time.Hour)
	defer c.Close()
	res, err := core.Search(context.Background(), benchGraph(), ds, benchSearchOpts(c))
	if err != nil {
		t.Fatal(err)
	}
	if res.Computed != 4 {
		t.Fatalf("search computed %d units", res.Computed)
	}
	calls := proxy.log()
	if len(calls) > 5 {
		t.Fatalf("search issued %d requests, want <= 5: %v", len(calls), calls)
	}

	// The same graph on other data, with a scorer that fails: every unit
	// is claimed, fails and is released.
	opts := benchSearchOpts(c)
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) { return 0, errors.New("scorer failed") }
	rng := rand.New(rand.NewSource(8))
	other, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 100, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Search(context.Background(), benchGraph(), other, opts); err != nil {
		t.Fatal(err)
	}
	calls = proxy.log()
	releases := 0
	for _, call := range calls {
		switch {
		case call == "DELETE /darr/claims":
			releases++
		case !strings.HasPrefix(call, "POST /darr/batch/"):
			t.Errorf("a cooperative search sent %s, want only POST /darr/batch/* and DELETE /darr/claims", call)
		}
	}
	if releases != 4 {
		t.Errorf("%d claim releases for 4 failed units: %v", releases, calls)
	}
}

// BenchmarkCooperativeSearch times a 4-unit cooperative search with 10 ms
// of latency injected per request; requests/op is reported alongside.
func BenchmarkCooperativeSearch(b *testing.B) {
	proxy := &countingProxy{latency: 10 * time.Millisecond}
	proxy.reset()
	ts := httptest.NewServer(proxy)
	defer ts.Close()
	ds := benchDataset(b)

	requests := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		proxy.reset() // fresh repo: every unit is a miss
		c := benchClient(ts.URL, "bench")
		c.EnablePublishQueue(DefaultPublishBatchSize, time.Hour)
		b.StartTimer()

		res, err := core.Search(context.Background(), benchGraph(), ds, benchSearchOpts(c))
		if err != nil {
			b.Fatal(err)
		}
		if res.Computed != 4 {
			b.Fatalf("computed %d units", res.Computed)
		}

		b.StopTimer()
		requests += len(proxy.log())
		c.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(requests)/float64(b.N), "requests/op")
}

// BenchmarkBatchLookupFloor times one LookupBatch of 132 unit keys, the
// coop grid's warm lookup, repeated over loopback through the client's
// own exec and transport, with tracing off. Its fixed-reply case answers
// from a handler that writes a fixed reply of the real one's size (every
// key a hit: a 17-byte bitmap and 132 scores): the floor under a warm
// search's round trip, which the server's handler and the search's own
// work come on top of. Its server case answers from a Server whose repo
// holds every key.
func BenchmarkBatchLookupFloor(b *testing.B) {
	defer trace.SetEnabled(true)
	trace.SetEnabled(false)
	keys := make([]string, 132)
	recs := make([]darr.Record, len(keys))
	reply := make([]byte, (len(keys)+7)/8, (len(keys)+7)/8+8*len(keys))
	for i := range keys {
		keys[i] = core.UnitKey("4f1c9a0be27d3c55", fmt.Sprintf("input -> minmaxscaler -> selectkbest(k=3) -> knn(k=%d)", i), "kfold(k=5,shuffle=true)|rmse|seed=1|numerics=3")
		recs[i] = darr.Record{Key: keys[i], DatasetFP: "4f1c9a0be27d3c55", Score: float64(i)}
		reply[i/8] |= 1 << (i % 8)
		reply = binary.LittleEndian.AppendUint64(reply, math.Float64bits(float64(i)))
	}
	repo := darr.NewRepo(nil, time.Minute)
	if err := repo.PutBatch(recs); err != nil {
		b.Fatal(err)
	}
	fixed := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", octetStream)
		w.Write(reply)
	})
	for _, h := range []struct {
		name string
		h    http.Handler
	}{{"fixed-reply", fixed}, {"server", NewServer(repo, nil)}} {
		b.Run(h.name, func(b *testing.B) {
			ts := httptest.NewServer(h.h)
			defer ts.Close()
			c := NewClient(ts.URL, "floor")
			lookup := func() {
				scores, err := c.LookupBatch(context.Background(), keys)
				if err != nil || len(scores) != len(keys) || scores[keys[131]] != 131 {
					b.Fatalf("lookup: %d scores, err %v", len(scores), err)
				}
			}
			lookup()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				lookup()
			}
		})
	}
}
