package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestConcurrentMetricUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_counter_total")
	g := r.Gauge("test_gauge")
	h := r.Histogram("test_hist_seconds", []float64{0.01, 0.1, 1})

	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%3) * 0.05)
			}
		}(w)
	}
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers*perWorker {
		t.Fatalf("gauge %v, want %d", got, workers*perWorker)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count %d, want %d", got, workers*perWorker)
	}
	// Every observation was 0, 0.05 or 0.1: all fall in the first two
	// buckets, so the +Inf bucket adds nothing beyond them.
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `test_hist_seconds_bucket{le="+Inf"} 16000`) {
		t.Fatalf("missing +Inf bucket:\n%s", buf.String())
	}
}

func TestPrometheusGoldenOutput(t *testing.T) {
	r := NewRegistry()
	r.Help("app_requests_total", "Total requests.")
	r.Counter(`app_requests_total{code="200"}`).Add(7)
	r.Counter(`app_requests_total{code="500"}`).Add(2)
	r.Gauge("app_temperature").Set(36.6)
	h := r.Histogram("app_latency_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `# TYPE app_latency_seconds histogram
app_latency_seconds_bucket{le="0.1"} 1
app_latency_seconds_bucket{le="1"} 2
app_latency_seconds_bucket{le="+Inf"} 3
app_latency_seconds_sum 5.55
app_latency_seconds_count 3
# HELP app_requests_total Total requests.
# TYPE app_requests_total counter
app_requests_total{code="200"} 7
app_requests_total{code="500"} 2
# TYPE app_temperature gauge
app_temperature 36.6
`
	if got := buf.String(); got != want {
		t.Fatalf("prometheus output mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestLabeledHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`rt_seconds{route="a"}`, []float64{1})
	h.Observe(0.5)
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`rt_seconds_bucket{route="a",le="1"} 1`,
		`rt_seconds_bucket{route="a",le="+Inf"} 1`,
		`rt_seconds_sum{route="a"} 0.5`,
		`rt_seconds_count{route="a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// ObserveAll is Observe over a batch: same buckets, same sum, whatever the
// order of the values, and nothing at all for an empty batch.
func TestObserveAllMatchesObserve(t *testing.T) {
	r := NewRegistry()
	one := r.Histogram("one_seconds", []float64{0.001, 0.01, 0.1})
	all := r.Histogram("all_seconds", []float64{0.001, 0.01, 0.1})
	vs := []float64{0.0005, 0.0007, 0.05, 0.05, 0.002, 7, 0.0001, 0.1}
	for _, v := range vs {
		one.Observe(v)
	}
	all.ObserveAll(vs)
	all.ObserveAll(nil)
	if one.Count() != all.Count() || one.Sum() != all.Sum() {
		t.Fatalf("count %d vs %d, sum %v vs %v", one.Count(), all.Count(), one.Sum(), all.Sum())
	}
	for i := range one.counts {
		if a, b := one.counts[i].Load(), all.counts[i].Load(); a != b {
			t.Fatalf("bucket %d: Observe %d, ObserveAll %d", i, a, b)
		}
	}
}

func TestGetOrCreateReturnsSameMetric(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x_total") != r.Counter("x_total") {
		t.Fatal("counter not deduplicated")
	}
	if r.Histogram("h_seconds", nil) != r.Histogram("h_seconds", []float64{1, 2}) {
		t.Fatal("histogram not deduplicated")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("same_name")
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on kind mismatch")
		}
	}()
	r.Gauge("same_name")
}

func TestMalformedNamePanics(t *testing.T) {
	for _, name := range []string{"", "1bad", "has space", `unclosed{label="x"`, `{onlylabels}`} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("want panic for %q", name)
				}
			}()
			NewRegistry().Counter(name)
		}()
	}
}

func TestSetEnabledStopsCollection(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("toggle_total")
	SetEnabled(false)
	c.Inc()
	SetEnabled(true)
	if c.Value() != 0 {
		t.Fatal("counter incremented while disabled")
	}
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("counter dead after re-enable")
	}
}

func TestRequestIDHelpers(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("bad ids %q %q", a, b)
	}
	ctx := context.Background()
	if RequestID(ctx) != "" {
		t.Fatal("empty context has id")
	}
	ctx, id := EnsureRequestID(ctx)
	if id == "" || RequestID(ctx) != id {
		t.Fatalf("ensure: %q vs %q", id, RequestID(ctx))
	}
	ctx2, id2 := EnsureRequestID(ctx)
	if id2 != id || ctx2 != ctx {
		t.Fatal("ensure regenerated an existing id")
	}
}

// TestRequestIDPropagation drives a full httptest round trip through the
// middleware: the client's header id reaches the handler context, is
// echoed on the response, and lands in the server log.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, &slog.HandlerOptions{Level: slog.LevelDebug}))

	var seen string
	ts := httptest.NewServer(Middleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusNoContent)
	}), logger))
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/x", nil)
	req.Header.Set(RequestIDHeader, "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seen != "feedfacecafebeef" {
		t.Fatalf("handler saw id %q", seen)
	}
	if got := resp.Header.Get(RequestIDHeader); got != "feedfacecafebeef" {
		t.Fatalf("echoed id %q", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=feedfacecafebeef") {
		t.Fatalf("server log missing id:\n%s", logBuf.String())
	}

	// Without a header the middleware generates one.
	resp, err = http.Get(ts.URL + "/y")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get(RequestIDHeader) == "" {
		t.Fatal("no generated id echoed")
	}
}

func TestHealthHandler(t *testing.T) {
	RegisterHealth("test-component", func() any { return map[string]int{"n": 42} })
	defer UnregisterHealth("test-component")

	rr := httptest.NewRecorder()
	HealthHandler(map[string]func() any{
		"extra": func() any { return "here" },
	}).ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))

	var reply HealthReply
	if err := json.NewDecoder(rr.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Status != "ok" || reply.UptimeSeconds <= 0 {
		t.Fatalf("reply %+v", reply)
	}
	if reply.Build["go_version"] == "" {
		t.Fatal("missing go_version")
	}
	if _, ok := reply.Components["test-component"]; !ok {
		t.Fatal("missing registered component")
	}
	if reply.Components["extra"] != "here" {
		t.Fatal("missing extra component")
	}
}

func TestDebugMuxServesPprofAndMetrics(t *testing.T) {
	ts := httptest.NewServer(DebugMux())
	defer ts.Close()
	for _, path := range []string{"/debug/pprof/", "/metrics", "/healthz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo,
		"WARN": slog.LevelWarn, "error": slog.LevelError, "": slog.LevelInfo,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("want error for unknown level")
	}
	if _, err := NewLogger(io.Discard, slog.LevelInfo, "yaml"); err == nil {
		t.Fatal("want error for unknown format")
	}
}
