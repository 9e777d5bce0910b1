package httpapi

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/store"
)

// swapTraceRecorder installs a fresh default recorder for one test so
// fragments recorded by other tests cannot leak in.
func swapTraceRecorder(t *testing.T, capacity int) *trace.Recorder {
	t.Helper()
	r := trace.NewRecorder(capacity)
	prev := trace.SetDefaultRecorder(r)
	t.Cleanup(func() { trace.SetDefaultRecorder(prev) })
	return r
}

// TestTracePropagationAcrossHTTP drives a real client->server round trip
// (httptest, so both fragments land in the same process recorder) and
// asserts the span linkage end to end: the server adopts the client's
// attempt span as its root's remote parent, and the server-side DARR
// batch work hangs off the server root.
func TestTracePropagationAcrossHTTP(t *testing.T) {
	rec := swapTraceRecorder(t, 16)
	client, _, _, _ := newTestServer(t)

	ctx, root := trace.Start(context.Background(), "test-search")
	if _, err := client.LookupBatch(ctx, []string{"k1", "k2"}); err != nil {
		t.Fatal(err)
	}
	root.End()

	frags := rec.Get(root.TraceID())
	if len(frags) != 2 {
		t.Fatalf("got %d fragments for trace, want 2 (server + client)", len(frags))
	}

	var clientFrag, serverFrag *trace.TraceData
	for _, f := range frags {
		switch {
		case f.Root.Name == "test-search":
			clientFrag = f
		case f.Root.Remote:
			serverFrag = f
		}
	}
	if clientFrag == nil || serverFrag == nil {
		t.Fatalf("missing fragment: client=%v server=%v", clientFrag, serverFrag)
	}

	if serverFrag.Root.Name != "server.darr-batch-lookup" {
		t.Errorf("server root = %q, want server.darr-batch-lookup", serverFrag.Root.Name)
	}
	if serverFrag.TraceID != clientFrag.TraceID {
		t.Errorf("trace ids differ: %s vs %s", serverFrag.TraceID, clientFrag.TraceID)
	}

	// The server root's parent must be the client's attempt span — the
	// innermost span live when the header was injected.
	var attempt *trace.SpanData
	var call *trace.SpanData
	for i := range clientFrag.Spans {
		s := &clientFrag.Spans[i]
		switch s.Name {
		case "attempt":
			attempt = s
		case "client.POST /darr/batch/lookup":
			call = s
		}
	}
	if attempt == nil {
		t.Fatalf("client fragment has no attempt span: %+v", names(clientFrag.Spans))
	}
	if call == nil {
		t.Fatalf("client fragment has no call span: %+v", names(clientFrag.Spans))
	}
	if attempt.Parent != call.ID {
		t.Errorf("attempt parent = %s, want call span %s", attempt.Parent, call.ID)
	}
	if call.Parent != clientFrag.Root.ID {
		t.Errorf("call parent = %s, want root %s", call.Parent, clientFrag.Root.ID)
	}
	if call.Component != trace.CompDARRWait {
		t.Errorf("call component = %q, want %q", call.Component, trace.CompDARRWait)
	}
	if serverFrag.Root.Parent != attempt.ID {
		t.Errorf("server root parent = %s, want client attempt span %s",
			serverFrag.Root.Parent, attempt.ID)
	}

	// The DARR batch handler work is a child of the server root.
	var batch *trace.SpanData
	for i := range serverFrag.Spans {
		if serverFrag.Spans[i].Name == "darr.get_batch" {
			batch = &serverFrag.Spans[i]
		}
	}
	if batch == nil {
		t.Fatalf("server fragment has no darr.get_batch span: %+v", names(serverFrag.Spans))
	}
	if batch.Parent != serverFrag.Root.ID {
		t.Errorf("darr.get_batch parent = %s, want server root %s", batch.Parent, serverFrag.Root.ID)
	}
}

func names(spans []trace.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// panicStore is an ObjectStore whose read path panics — the handler
// crash the recovery middleware must absorb.
type panicStore struct{ store.ObjectStore }

func (panicStore) Get(key string, haveVersion uint64) (*store.Reply, error) {
	panic("object store exploded")
}

func TestServerPanicRecovery(t *testing.T) {
	swapTraceRecorder(t, 16)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	logTo(t, io.Discard)
	srv := NewServer(nil, panicStore{hs})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	before := obs.GetCounter("coda_http_panics_total").Value()

	resp, err := http.Get(ts.URL + "/store/objects/somekey")
	if err != nil {
		t.Fatalf("panicking handler must still answer: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	var body errorReply
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("500 body must be structured JSON: %v", err)
	}
	if body.Error != "internal server error" || body.Status != http.StatusInternalServerError {
		t.Errorf("body = %+v", body)
	}
	if body.RequestID == "" {
		t.Error("500 body missing request_id")
	}
	if got := obs.GetCounter("coda_http_panics_total").Value(); got != before+1 {
		t.Errorf("coda_http_panics_total = %d, want %d", got, before+1)
	}

	// The connection and the server survive: the next request succeeds.
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp2.StatusCode)
	}
}

// TestPanicRouteMetricsStillFire asserts the telemetry path runs even
// when the handler panics: the request lands in the per-route counter
// with code 500.
func TestPanicRouteMetricsStillFire(t *testing.T) {
	swapTraceRecorder(t, 16)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	logTo(t, io.Discard)
	srv := NewServer(nil, panicStore{hs})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	ctr := obs.GetCounter(`coda_http_requests_total{route="store-objects",method="GET",code="500"}`)
	before := ctr.Value()
	resp, err := http.Get(ts.URL + "/store/objects/otherkey")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := ctr.Value(); got != before+1 {
		t.Errorf("route counter = %d, want %d", got, before+1)
	}
}

// TestPanicDoesNotReachNetHTTP asserts the server's own recovery layer
// catches the panic (with request id, value, and stack in its log)
// before net/http's connection-killing recover ever sees it.
func TestPanicDoesNotReachNetHTTP(t *testing.T) {
	swapTraceRecorder(t, 16)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	logBuf := &syncBuffer{}
	logTo(t, logBuf)
	srv := NewServer(nil, panicStore{hs})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/store/objects/k")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(logBuf.String(), "handler panic") {
		t.Error("panic was not logged by the server's own recovery layer")
	}
	if !strings.Contains(logBuf.String(), "object store exploded") {
		t.Error("panic value missing from the log")
	}
	if !strings.Contains(logBuf.String(), "stack=") {
		t.Error("stack trace missing from the log")
	}
}
