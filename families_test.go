package coda_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/faultinject"
	"coda/internal/httpapi"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/preprocess"
	"coda/internal/replication"
	"coda/internal/retry"
	"coda/internal/store"
	"coda/internal/webservice"
)

// scrapeFamilies reads the in-process /metrics scrape into one value per
// family: the sum of a counter's samples, the sum of a histogram's _count
// samples, and for a gauge the number of its samples.
func scrapeFamilies(t *testing.T) (values map[string]float64, kinds map[string]string) {
	t.Helper()
	rec := httptest.NewRecorder()
	obs.MetricsHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	values, kinds = map[string]float64{}, map[string]string{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, ok := strings.Cut(f, " "); ok {
				kinds[name] = kind
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		series := line[:strings.LastIndexByte(line, ' ')]
		name, _, _ := strings.Cut(series, "{")
		v, err := strconv.ParseFloat(line[len(series)+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample %q", line)
		}
		if family, ok := strings.CutSuffix(name, "_count"); ok && kinds[family] == "histogram" {
			values[family] += v
			continue
		}
		switch kinds[name] {
		case "counter":
			values[name] += v
		case "gauge":
			values[name]++
		}
	}
	return values, kinds
}

// TestEveryFamilyMoves drives the code behind every family DESIGN.md's
// metric catalogue lists, in this process, and fails for a family whose
// counter or histogram did not move, or whose gauge has no sample.
func TestEveryFamilyMoves(t *testing.T) {
	before, _ := scrapeFamilies(t)
	ctx := context.Background()

	// A server on durable log: DSNs with leases, as coda-server runs it.
	repo, err := darr.NewDurableRepo("log:"+t.TempDir(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	hs, err := store.OpenDSN("log:"+t.TempDir(), store.Options{Retain: 2, BlockSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	leases := replication.NewManagerWith(hs, nil, replication.Config{Workers: 2, CoalesceWindow: 250 * time.Millisecond})
	defer leases.Close()
	api := httpapi.NewServer(repo, hs)
	api.EnableLeases(leases)
	api.Handle("score", "/score", webservice.Handler(constPredictor{}), http.MethodPost)
	api.Handle("other", "/panic", http.HandlerFunc(func(http.ResponseWriter, *http.Request) { panic("boom") }), http.MethodPost)
	ts := httptest.NewServer(api)
	defer ts.Close()

	// A cooperative search through a queued publisher, then an all-hit one.
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 60, Features: 3, Informative: 2, Noise: 1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	scorer, _ := metrics.ScorerByName("rmse")
	search := func(c *httpapi.Client) *core.SearchResult {
		t.Helper()
		c.Metric = "rmse"
		res, err := core.Search(ctx, g, ds, core.SearchOptions{
			Splitter: crossval.KFold{K: 3, Shuffle: true}, Scorer: scorer, Store: c, Parallelism: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	publisher := httpapi.NewClient(ts.URL, "families-a")
	publisher.EnablePublishQueue(0, 0)
	defer publisher.Close()
	if res := search(publisher); res.Computed != 2 {
		t.Fatalf("first search computed %d units, want 2", res.Computed)
	}
	if res := search(httpapi.NewClient(ts.URL, "families-b")); res.CacheHits != 2 {
		t.Fatalf("second search hit %d units, want 2", res.CacheHits)
	}

	// A search against a dead server degrades, and a queued publish to
	// it is dropped; a lossy link retries.
	dead := httpapi.NewClient(ts.URL, "families-dead")
	dead.HTTP = &http.Client{Transport: faultinject.NewTransport(nil, faultinject.Config{Seed: 1, DropFraction: 1})}
	dead.Retry = retry.Policy{MaxAttempts: 2, Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
	if res := search(dead); res.Degraded != 2 {
		t.Fatalf("search against a dead server degraded %d units, want 2", res.Degraded)
	}
	dead.EnablePublishQueue(0, 0)
	defer dead.Close()
	if err := dead.Publish(ctx, "fp|lost|e", 1, ""); err != nil {
		t.Fatal(err)
	}
	if err := dead.Flush(ctx); err == nil {
		t.Fatal("a flush to a dead server succeeded")
	}

	// Objects: a full pull of version 1, a delta pull of version 2, and
	// versions 3 and 4, which trim the oldest.
	writer := httpapi.NewClient(ts.URL, "families-writer")
	obj := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(obj)
	put := func() {
		t.Helper()
		if _, err := writer.PutObject(ctx, "families/obj", bytes.Clone(obj)); err != nil {
			t.Fatal(err)
		}
		obj[len(obj)/2]++
	}
	put()
	rep := store.NewReplica()
	if err := writer.PullObject(ctx, rep, "families/obj"); err != nil {
		t.Fatal(err)
	}

	// Leases: an HTTP one renewed and cancelled, one that panics, one that
	// expires, and a notify lease on which versions 3 and 4 coalesce.
	info, err := writer.Subscribe(ctx, "families/obj", "notify", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.RenewLease(ctx, info.LeaseID, time.Minute); err != nil {
		t.Fatal(err)
	}
	notify := func(replication.Update) {}
	for _, sub := range []struct {
		ttl time.Duration
		fn  replication.SubscriberFunc
	}{
		{time.Minute, notify},
		{time.Minute, func(replication.Update) { panic("subscriber boom") }},
		{time.Millisecond, notify},
	} {
		if _, err := leases.Subscribe("families/obj", "families-sub", replication.PushNotify, sub.ttl, sub.fn); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	leases.Sweep()
	put()
	leases.Flush()
	if err := writer.PullObject(ctx, rep, "families/obj"); err != nil {
		t.Fatal(err)
	}
	put()
	put()
	leases.Flush()
	if err := writer.CancelLease(ctx, info.LeaseID); err != nil {
		t.Fatal(err)
	}

	// Compaction on both backends.
	if err := repo.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := hs.CompactBackend(); err != nil {
		t.Fatal(err)
	}

	// The serving chain: a scored row, a panicking handler, a short body.
	for _, path := range []string{"/score", "/panic"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"rows": [[1, 2, 3]]}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	short := httptest.NewRequest(http.MethodPost, "/darr/batch/lookup", strings.NewReader("short"))
	short.Header.Set("Content-Type", "application/octet-stream")
	short.ContentLength = 64
	api.ServeHTTP(httptest.NewRecorder(), short)

	after, kinds := scrapeFamilies(t)
	for family, line := range catalogue(t, "DESIGN.md", "Metric catalogue") {
		switch kind := kinds[family]; {
		case kind == "":
			t.Errorf("DESIGN.md:%d: %s is not in the scrape", line, family)
		case kind == "gauge" && after[family] == 0:
			t.Errorf("DESIGN.md:%d: gauge %s has no sample", line, family)
		case kind != "gauge" && after[family] <= before[family]:
			t.Errorf("DESIGN.md:%d: %s %s did not move (%v before, %v after)", line, kind, family, before[family], after[family])
		}
	}
}

// constPredictor answers 0 for every row, as a fitted model would answer
// something.
type constPredictor struct{}

func (constPredictor) Predict(ds *dataset.Dataset) ([]float64, error) {
	return make([]float64, ds.NumSamples()), nil
}
