package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/preprocess"
	"coda/internal/replication"
	"coda/internal/store"
)

// syncBuffer is a goroutine-safe log sink: server handlers log from the
// httptest server's goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// logTo makes slog's default a debug-level text logger writing to w until
// tb ends: the server, the client and the lease manager all log there.
func logTo(tb testing.TB, w io.Writer) {
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: slog.LevelDebug})))
	tb.Cleanup(func() { slog.SetDefault(prev) })
}

// TestRequestIDInBothLogs is the end-to-end tracing check: one ambient
// request id seeded for a whole cooperative search (exactly what
// coda-client does) must show up in the client-side call logs and in the
// server-side request logs.
func TestRequestIDInBothLogs(t *testing.T) {
	var log syncBuffer
	logTo(t, &log)

	repo := darr.NewRepo(nil, time.Minute)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	ts := httptest.NewServer(NewServer(repo, hs))
	defer ts.Close()

	client := NewClient(ts.URL, "trace-client")
	client.Metric = "rmse"

	rng := rand.New(rand.NewSource(3))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 60, Features: 3, Informative: 2, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(mlmodels.NewLinearRegression())
	scorer, _ := metrics.ScorerByName("rmse")

	ctx, requestID := obs.EnsureRequestID(context.Background())
	if _, err := core.Search(ctx, g, ds, core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: true},
		Scorer:   scorer,
		Seed:     5,
		Store:    client,
	}); err != nil {
		t.Fatal(err)
	}

	// The client logs each call as "call ok", the server each request as
	// "http request".
	needle := "request_id=" + requestID
	var clientLines, serverLines int
	for _, line := range strings.Split(log.String(), "\n") {
		switch {
		case strings.Contains(line, `msg="call ok"`) && strings.Contains(line, needle):
			clientLines++
		case strings.Contains(line, `msg="http request"`):
			// Every server-side request line for this search carries the
			// same id: a cooperative search is one trace, not a pile of
			// unrelated calls.
			if !strings.Contains(line, needle) {
				t.Fatalf("server log line with foreign request id: %s", line)
			}
			serverLines++
		}
	}
	if clientLines == 0 || serverLines == 0 {
		t.Fatalf("%d client and %d server lines carry %s, want both:\n%s", clientLines, serverLines, needle, log.String())
	}
}

// TestMetricsEndpoint exercises the server scrape after real traffic and
// checks the exposition covers the families the dashboards rely on.
func TestMetricsEndpoint(t *testing.T) {
	client, leases, _, ts := newLeaseServer(t, replication.Config{Workers: 2})
	ctx := context.Background()

	key := core.UnitKey("fpm", "spec", "eval")
	if _, _, err := client.Lookup(ctx, key); err != nil { // miss
		t.Fatal(err)
	}
	if _, err := client.Claim(ctx, key); err != nil {
		t.Fatal(err)
	}
	if err := client.Publish(ctx, key, 1.5, "x"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutObject(ctx, "obj", bytes.Repeat([]byte("y"), 4096)); err != nil {
		t.Fatal(err)
	}
	if err := client.PullObject(ctx, store.NewReplica(), "obj"); err != nil {
		t.Fatal(err)
	}
	// A leased PUT: three leases in two (mode, acked version) groups, so
	// the scrape shows three pushes from two update builds.
	for _, mode := range []string{"delta", "delta", "notify"} {
		if _, err := client.Subscribe(ctx, "obj", mode, time.Minute, 1); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("content type %q", ct)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	// series sums the samples of one family (all label sets) in a scrape.
	series := func(body, family string) (sum float64) {
		for _, line := range strings.Split(body, "\n") {
			if name, value, ok := strings.Cut(line, " "); ok && (name == family || strings.HasPrefix(name, family+"{")) {
				v, err := strconv.ParseFloat(value, 64)
				if err != nil {
					t.Fatalf("sample %q: %v", line, err)
				}
				sum += v
			}
		}
		return sum
	}
	before := scrape()
	if _, err := client.PutObject(ctx, "obj", bytes.Repeat([]byte("z"), 4096)); err != nil {
		t.Fatal(err)
	}
	leases.Flush()
	body := scrape()
	if got := series(body, "coda_replication_pushes_total") - series(before, "coda_replication_pushes_total"); got != 3 {
		t.Errorf("coda_replication_pushes_total moved by %v over a PUT to 3 leases, want 3", got)
	}
	if got := series(body, "coda_replication_update_builds_total") - series(before, "coda_replication_update_builds_total"); got != 2 {
		t.Errorf("coda_replication_update_builds_total moved by %v for 2 groups, want 2", got)
	}
	for _, family := range []string{
		"coda_darr_lookups_total",
		`coda_darr_hits_total`,
		`coda_darr_claims_total{granted="true"}`,
		`coda_store_get_seconds_count{kind="full"}`,
		`coda_store_reply_bytes_total{kind="full"}`,
		"coda_search_unit_seconds_bucket",
		"coda_retry_attempts_total",
		`coda_http_requests_total{route="darr-batch-records"`,
		"coda_uptime_seconds",
		"coda_replication_update_builds_total",
		"coda_replication_fanout_queue_depth",
		"coda_replication_fanout_seconds_bucket",
	} {
		if !strings.Contains(body, family) {
			t.Errorf("scrape missing %s", family)
		}
	}
	if t.Failed() {
		t.Fatalf("scrape body:\n%s", body)
	}
	// Shape check: every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
}

// TestHealthzEnriched verifies the structured health document: uptime,
// build info and the per-component snapshots (DARR, store).
func TestHealthzEnriched(t *testing.T) {
	client, _, _, ts := newTestServer(t)
	ctx := context.Background()
	if err := client.Publish(ctx, core.UnitKey("fph", "s", "e"), 2.0, ""); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var reply obs.HealthReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ok" || reply.UptimeSeconds <= 0 {
		t.Fatalf("reply %+v", reply)
	}
	if reply.Build["go_version"] == "" {
		t.Fatal("missing build.go_version")
	}
	darrInfo, ok := reply.Components["darr"].(map[string]any)
	if !ok {
		t.Fatalf("missing darr component: %+v", reply.Components)
	}
	if darrInfo["records"].(float64) < 1 {
		t.Fatalf("darr records %v", darrInfo["records"])
	}
	if _, ok := reply.Components["store"]; !ok {
		t.Fatal("missing store component")
	}
}

// TestStructuredErrorBody checks that handler failures come back as JSON
// with a status and the caller's request id.
func TestStructuredErrorBody(t *testing.T) {
	_, _, _, ts := newTestServer(t)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/store/objects/ghost", nil)
	req.Header.Set(obs.RequestIDHeader, "deadbeefdeadbeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	var body struct {
		Error     string `json:"error"`
		Status    int    `json:"status"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == "" || body.Status != http.StatusNotFound {
		t.Fatalf("body %+v", body)
	}
	if body.RequestID != "deadbeefdeadbeef" {
		t.Fatalf("request id %q", body.RequestID)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "deadbeefdeadbeef" {
		t.Fatalf("echoed id %q", got)
	}
}
