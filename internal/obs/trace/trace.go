// Package trace is the hierarchical tracing layer for the cooperative
// analytics stack. A cooperative search interleaves local compute (fold
// fits, prefix-cache hits) with WAN round trips (DARR batch lookups and
// claims, object-store pulls); flat request ids and aggregate histograms
// cannot answer "where did *this* slow search spend its time?". This
// package can: spans carry trace/span/parent ids through context, hop
// processes via an X-Coda-Traceparent header (the server adopts the
// caller's span as parent), and completed traces land in a bounded ring
// recorder served at /debug/traces. A critical-path analyzer (profile.go)
// attributes each trace's wall time to compute vs communication.
//
// Like the parent obs package everything here is stdlib-only, so it can
// be imported from any layer (core, httpapi, darr, store, retry,
// replication) without cycles. obs.SetEnabled(false) turns the tracer
// into a zero-allocation no-op: Start returns a nil *Span whose methods
// are all nil-safe.
package trace

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/obs"
)

// Header carries trace context between cooperative nodes, modeled on the
// W3C traceparent format: <32 hex trace id>-<16 hex span id>-<2 hex
// flags>. Every trace is recorded, so Inject always writes flags 01
// ("sampled"); parseHeader checks the field but does not act on it.
const Header = "X-Coda-Traceparent"

// maxSpansPerTrace bounds one trace's in-memory span buffer; spans past
// the cap are counted in TraceData.Dropped instead of stored, so a
// runaway search cannot hold unbounded memory.
const maxSpansPerTrace = 2048

// TraceID identifies one logical operation across processes.
type TraceID [16]byte

// String renders the id as 32 lowercase hex characters.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID identifies one span within a trace.
type SpanID [8]byte

// String renders the id as 16 lowercase hex characters.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// Attr is one key/value annotation on a span or event. Values are
// strings so the hot path never reflects; use the typed constructors.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// Int64 builds an int64 attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Value: strconv.FormatInt(v, 10)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: strconv.FormatBool(v)} }

// Duration builds a duration attribute.
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// Event is a timestamped annotation inside a span (e.g. one retry
// backoff of a client call).
type Event struct {
	Name  string    `json:"name"`
	At    time.Time `json:"at"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// SpanData is the immutable record of a finished span.
type SpanData struct {
	TraceID TraceID
	ID      SpanID
	Parent  SpanID
	// Remote marks a local-root span whose parent lives in another
	// process (adopted from the propagation header).
	Remote bool
	Name   string
	// Component classifies the span for the critical-path analyzer:
	// one of the Comp* constants, or empty for structural spans.
	Component string
	Start     time.Time
	End       time.Time
	Attrs     []Attr
	Events    []Event
}

// Duration returns the span's elapsed time.
func (d SpanData) Duration() time.Duration { return d.End.Sub(d.Start) }

// traceState is the per-process fragment of one trace: every span that
// started here shares it and appends itself on End.
type traceState struct {
	id TraceID

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

func (st *traceState) add(d SpanData) {
	st.mu.Lock()
	if len(st.spans) < maxSpansPerTrace {
		st.spans = append(st.spans, d)
	} else {
		st.dropped++
	}
	st.mu.Unlock()
}

func (st *traceState) snapshot() ([]SpanData, int) {
	st.mu.Lock()
	spans := make([]SpanData, len(st.spans))
	copy(spans, st.spans)
	dropped := st.dropped
	st.mu.Unlock()
	return spans, dropped
}

// Span is one timed operation in a trace. A nil *Span (returned by Start
// when tracing is off) is a valid receiver for every method.
type Span struct {
	st *traceState
	// localRoot marks the first span of this process's fragment; its End
	// hands the fragment to the recorder.
	localRoot bool

	mu    sync.Mutex
	data  SpanData
	ended bool
}

type spanKey struct{}

type remoteParent struct {
	traceID TraceID
	spanID  SpanID
}

type remoteKey struct{}

// tracer on/off switch independent of obs.SetEnabled, so benchmarks can
// price tracing alone; the zero value means enabled.
var traceDisabled atomic.Bool

// SetEnabled turns span creation on or off process-wide (metrics are
// unaffected; obs.SetEnabled turns off both).
func SetEnabled(on bool) { traceDisabled.Store(!on) }

// Enabled reports whether spans are being created: both the obs layer
// and the tracer itself must be on.
func Enabled() bool { return obs.Enabled() && !traceDisabled.Load() }

// Span ids mix a per-process random base with an atomic counter: unique
// without a syscall per span.
var (
	idCounter atomic.Uint64
	idBase    = func() uint64 {
		var b [8]byte
		if _, err := crand.Read(b[:]); err != nil {
			return uint64(time.Now().UnixNano())
		}
		return binary.BigEndian.Uint64(b[:])
	}()
)

func newTraceID() TraceID {
	var t TraceID
	if _, err := crand.Read(t[:]); err != nil {
		binary.BigEndian.PutUint64(t[:8], idBase)
		binary.BigEndian.PutUint64(t[8:], idCounter.Add(1)*0x9e3779b97f4a7c15)
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	binary.BigEndian.PutUint64(s[:], idBase^(idCounter.Add(1)*0x9e3779b97f4a7c15))
	if s.IsZero() {
		s[7] = 1
	}
	return s
}

// FromContext returns the context's current span, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start begins a span named name as a child of the context's current
// span. With no current span it starts a new trace (or, after Extract,
// adopts the remote caller's span as parent), making this span the
// process-local root whose End records the fragment. When tracing is
// off it returns the context unchanged and a nil span — zero
// allocations, and every Span method tolerates the nil.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if !Enabled() {
		return ctx, nil
	}
	d := SpanData{Name: name, Start: time.Now(), Attrs: attrs}
	var st *traceState
	localRoot := false
	if parent := FromContext(ctx); parent != nil {
		st = parent.st
		d.TraceID = st.id
		d.Parent = parent.data.ID
	} else if rp, ok := ctx.Value(remoteKey{}).(remoteParent); ok {
		st = &traceState{id: rp.traceID}
		d.TraceID = rp.traceID
		d.Parent = rp.spanID
		d.Remote = true
		localRoot = true
	} else {
		id := newTraceID()
		st = &traceState{id: id}
		d.TraceID = id
		localRoot = true
	}
	d.ID = newSpanID()
	s := &Span{st: st, localRoot: localRoot, data: d}
	return context.WithValue(ctx, spanKey{}, s), s
}

// TraceID returns the span's trace id (zero for a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.data.TraceID
}

// SetComponent classifies the span for the critical-path analyzer.
func (s *Span) SetComponent(c string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Component = c
	}
	s.mu.Unlock()
}

// SetAttr appends annotations to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Attrs = append(s.data.Attrs, attrs...)
	}
	s.mu.Unlock()
}

// AddEvent appends a timestamped annotation (e.g. a retry backoff).
func (s *Span) AddEvent(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Events = append(s.data.Events, Event{Name: name, At: time.Now(), Attrs: attrs})
	}
	s.mu.Unlock()
}

// End finishes the span and appends it to its trace fragment. Ending
// the process-local root hands the fragment to the recorder. End is
// idempotent and nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.End = time.Now()
	d := s.data
	s.mu.Unlock()
	s.st.add(d)
	if !s.localRoot {
		return
	}
	spans, dropped := s.st.snapshot()
	DefaultRecorder().Record(&TraceData{
		TraceID: d.TraceID, Root: d, Spans: spans, Dropped: dropped, Recorded: d.End,
	})
}

// Annotate adds attributes to the context's current span, if any.
func Annotate(ctx context.Context, attrs ...Attr) { FromContext(ctx).SetAttr(attrs...) }

// AddEvent adds a timestamped event to the context's current span.
func AddEvent(ctx context.Context, name string, attrs ...Attr) {
	FromContext(ctx).AddEvent(name, attrs...)
}

// Inject writes the context's span reference into an outgoing header so
// the receiving server can adopt it as parent.
func Inject(ctx context.Context, h http.Header) {
	s := FromContext(ctx)
	if s == nil {
		return
	}
	h.Set(Header, s.data.TraceID.String()+"-"+s.data.ID.String()+"-01")
}

// Extract reads an incoming propagation header and stashes the remote
// parent reference in the context; the next Start becomes a local root
// under the caller's span. A missing or malformed header (and a
// disabled tracer) leaves the context unchanged.
func Extract(ctx context.Context, h http.Header) context.Context {
	if !Enabled() {
		return ctx
	}
	rp, ok := parseHeader(h.Get(Header))
	if !ok {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, rp)
}

// parseHeader decodes "<32hex>-<16hex>-<2hex>"; it rejects anything
// malformed or with a zero trace id rather than guessing.
func parseHeader(v string) (remoteParent, bool) {
	const want = 32 + 1 + 16 + 1 + 2
	if len(v) != want || v[32] != '-' || v[49] != '-' {
		return remoteParent{}, false
	}
	var rp remoteParent
	if _, err := hex.Decode(rp.traceID[:], []byte(v[:32])); err != nil {
		return remoteParent{}, false
	}
	if _, err := hex.Decode(rp.spanID[:], []byte(v[33:49])); err != nil {
		return remoteParent{}, false
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(v[50:])); err != nil {
		return remoteParent{}, false
	}
	if rp.traceID.IsZero() || rp.spanID.IsZero() {
		return remoteParent{}, false
	}
	return rp, true
}
