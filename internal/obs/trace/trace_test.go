package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// swapRecorder installs a fresh recorder for one test and restores the
// previous one afterwards.
func swapRecorder(t *testing.T, capacity int) *Recorder {
	t.Helper()
	r := NewRecorder(capacity)
	prev := SetDefaultRecorder(r)
	t.Cleanup(func() { SetDefaultRecorder(prev) })
	return r
}

func TestSpanHierarchyAndRecording(t *testing.T) {
	rec := swapRecorder(t, 16)

	ctx, root := Start(context.Background(), "root")
	if root == nil {
		t.Fatal("Start returned nil span with tracing enabled")
	}
	cctx, child := Start(ctx, "child", String("k", "v"))
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	if rec.Len() != 0 {
		t.Fatalf("trace recorded before local root ended: %d", rec.Len())
	}
	root.End()

	traces := rec.Traces()
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.TraceID != root.TraceID() {
		t.Fatalf("trace id mismatch")
	}
	if len(td.Spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(td.Spans))
	}
	byName := map[string]SpanData{}
	for _, s := range td.Spans {
		byName[s.Name] = s
	}
	if byName["child"].Parent != root.data.ID {
		t.Errorf("child parent = %v, want root %v", byName["child"].Parent, root.data.ID)
	}
	if byName["grandchild"].Parent != byName["child"].ID {
		t.Errorf("grandchild parent = %v, want child %v", byName["grandchild"].Parent, byName["child"].ID)
	}
	if byName["root"].Parent != (SpanID{}) {
		t.Errorf("root should have no parent, got %v", byName["root"].Parent)
	}
	for _, s := range td.Spans {
		if s.TraceID != root.TraceID() {
			t.Errorf("span %s has trace id %v, want %v", s.Name, s.TraceID, root.TraceID())
		}
	}
	if got := byName["child"].Attrs[0]; got.Key != "k" || got.Value != "v" {
		t.Errorf("child attr = %+v", got)
	}
}

func TestEndIdempotent(t *testing.T) {
	rec := swapRecorder(t, 4)
	_, sp := Start(context.Background(), "once")
	sp.End()
	sp.End()
	sp.End()
	if rec.Len() != 1 {
		t.Fatalf("double End recorded %d traces, want 1", rec.Len())
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	rec := swapRecorder(t, 16)

	ctx, parent := Start(context.Background(), "client-call")
	h := http.Header{}
	Inject(ctx, h)
	v := h.Get(Header)
	want := parent.TraceID().String() + "-" + parent.data.ID.String() + "-01"
	if v != want {
		t.Fatalf("injected header %q, want %q", v, want)
	}

	// The receiving process extracts and starts its own local root.
	srvCtx := Extract(context.Background(), h)
	_, srv := Start(srvCtx, "server-side")
	srv.End()
	parent.End()

	frags := rec.Get(parent.TraceID())
	if len(frags) != 2 {
		t.Fatalf("got %d fragments, want 2 (server + client)", len(frags))
	}
	var serverFrag *TraceData
	for _, f := range frags {
		if f.Root.Name == "server-side" {
			serverFrag = f
		}
	}
	if serverFrag == nil {
		t.Fatal("server fragment not recorded")
	}
	if !serverFrag.Root.Remote {
		t.Error("server root should be marked Remote")
	}
	if serverFrag.Root.Parent != parent.data.ID {
		t.Errorf("server root parent = %v, want client span %v", serverFrag.Root.Parent, parent.data.ID)
	}
	if serverFrag.TraceID != parent.TraceID() {
		t.Errorf("server fragment trace id = %v, want %v", serverFrag.TraceID, parent.TraceID())
	}
}

func TestExtractMalformedHeader(t *testing.T) {
	for _, v := range []string{
		"",
		"short",
		strings.Repeat("z", 32) + "-" + strings.Repeat("0", 16) + "-01", // bad hex
		strings.Repeat("0", 32) + "-" + strings.Repeat("a", 16) + "-01", // zero trace id
		strings.Repeat("a", 32) + "x" + strings.Repeat("a", 16) + "-01", // bad separator
	} {
		h := http.Header{}
		if v != "" {
			h.Set(Header, v)
		}
		ctx := Extract(context.Background(), h)
		if _, ok := ctx.Value(remoteKey{}).(remoteParent); ok {
			t.Errorf("Extract accepted malformed header %q", v)
		}
	}
}

// TestSampledFlagPropagates: every span injects the sampled flag, 01, and
// a fragment under a peer's header is recorded whatever flags the peer
// sent, so a peer that still head-samples and writes 00 loses no trace
// here.
func TestSampledFlagPropagates(t *testing.T) {
	rec := swapRecorder(t, 16)
	ctx, parent := Start(context.Background(), "client")
	h := http.Header{}
	Inject(ctx, h)
	if got := h.Get(Header); !strings.HasSuffix(got, "-01") {
		t.Fatalf("injected header = %q, want -01 suffix", got)
	}
	h.Set(Header, strings.TrimSuffix(h.Get(Header), "01")+"00")
	_, srv := Start(Extract(context.Background(), h), "server")
	srv.End()
	parent.End()
	if rec.Len() != 2 {
		t.Fatalf("recorded %d fragments, want the server's and the client's", rec.Len())
	}
}

func TestDisabledTracerIsNoop(t *testing.T) {
	rec := swapRecorder(t, 16)
	SetEnabled(false)
	defer SetEnabled(true)

	ctx, sp := Start(context.Background(), "off")
	if sp != nil {
		t.Fatal("Start must return nil span when disabled")
	}
	// Every method must tolerate the nil span.
	sp.SetComponent(CompCompute)
	sp.SetAttr(String("k", "v"))
	sp.AddEvent("e")
	sp.End()
	Annotate(ctx, Int("n", 1))
	AddEvent(ctx, "evt")
	Inject(ctx, http.Header{})
	if p := sp.Profile(); p.Total != 0 {
		t.Errorf("nil span profile = %+v", p)
	}
	if rec.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d traces", rec.Len())
	}
}

func TestDisabledTracerZeroAllocs(t *testing.T) {
	SetEnabled(false)
	defer SetEnabled(true)
	ctx := context.Background()
	h := http.Header{}
	// Attr constructors build a variadic slice at the call site before
	// Start can bail, so hot paths guard attrs behind Enabled(); the
	// attr-less span lifecycle itself must be allocation-free.
	allocs := testing.AllocsPerRun(100, func() {
		sctx, sp := Start(ctx, "off")
		sp.SetComponent(CompCompute)
		sp.End()
		Inject(sctx, h)
		_ = Extract(sctx, h)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer allocates %v per op, want 0", allocs)
	}
}

func TestRecorderEvictionConcurrent(t *testing.T) {
	const capacity = 8
	rec := NewRecorder(capacity)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var id TraceID
				binary.BigEndian.PutUint64(id[:8], uint64(w*1000+i+1))
				rec.Record(&TraceData{
					TraceID: id,
					Root:    SpanData{TraceID: id, Name: fmt.Sprintf("t-%d-%d", w, i)},
				})
			}
		}()
	}
	wg.Wait()
	if got := rec.Len(); got != capacity {
		t.Fatalf("ring holds %d traces, want capacity %d", got, capacity)
	}
	traces := rec.Traces()
	if len(traces) != capacity {
		t.Fatalf("Traces returned %d, want %d", len(traces), capacity)
	}
	for _, td := range traces {
		if td == nil || td.TraceID.IsZero() {
			t.Fatal("ring returned nil or zero-id trace after concurrent writes")
		}
	}
}

func TestSpanCapBoundsMemory(t *testing.T) {
	rec := swapRecorder(t, 4)
	ctx, root := Start(context.Background(), "big")
	for i := 0; i < maxSpansPerTrace+10; i++ {
		_, sp := Start(ctx, "child")
		sp.End()
	}
	root.End()
	td := rec.Traces()[0]
	if len(td.Spans) != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, want cap %d", len(td.Spans), maxSpansPerTrace)
	}
	// 10 extra children plus the root (which ended after the cap filled).
	if td.Dropped != 11 {
		t.Fatalf("dropped = %d, want 11", td.Dropped)
	}
}

func TestHandlerListAndWaterfall(t *testing.T) {
	rec := swapRecorder(t, 16)
	ctx, root := Start(context.Background(), "req")
	_, c1 := Start(ctx, "step-one")
	c1.SetComponent(CompCompute)
	c1.End()
	_, c2 := Start(ctx, "step-two", String("key", "val"))
	c2.End()
	root.End()

	// JSON listing.
	rr := httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("list status %d", rr.Code)
	}
	body := rr.Body.String()
	for _, want := range []string{root.TraceID().String(), `"root": "req"`, `"spans": 3`, `"root_children": 2`} {
		if !strings.Contains(body, want) {
			t.Errorf("listing missing %q in %s", want, body)
		}
	}

	// Waterfall.
	rr = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+root.TraceID().String(), nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("waterfall status %d", rr.Code)
	}
	wf := rr.Body.String()
	for _, want := range []string{"req", "  step-one [compute]", "  step-two", "key=val"} {
		if !strings.Contains(wf, want) {
			t.Errorf("waterfall missing %q in:\n%s", want, wf)
		}
	}

	// Unknown trace id.
	rr = httptest.NewRecorder()
	rec.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/debug/traces?id="+strings.Repeat("0", 32), nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("unknown trace status %d, want 404", rr.Code)
	}
}
