package main

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/persist"
	"coda/internal/store"
)

// The traced pass wraps the layers' public entry points from outside and
// records one span per call. Graph components are never wrapped: that
// would defeat the type-asserted fusion paths and change what runs.

// span is one call into one layer. Times are nanoseconds since the run
// started; Parent is 0 for a root. Req is the X-Coda-Request-Id where the
// call carried one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    string `json:"req,omitempty"`
	Key    string `json:"key,omitempty"` // object key, on store spans
	// Out and In size what the call sent and got back, where that means
	// something: request and response bytes of a round trip, bytes written
	// by a put, wire bytes of a store reply, keys asked and granted by a
	// batch claim.
	Out int64 `json:"out,omitempty"`
	In  int64 `json:"in,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
	// open tracks, per layer slot, the span in flight: a callee that takes
	// no context finds its parent there when exactly one call is open.
	open map[string]*slot
}

type slot struct {
	id int64
	n  int
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), open: map[string]*slot{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span. slotName, when non-empty, publishes it as the
// in-flight call of that slot.
func (r *recorder) begin(name, slotName string, parent int64, req string) *span {
	r.mu.Lock()
	r.next++
	s := &span{ID: r.next, Parent: parent, Name: name, Req: req}
	if slotName != "" {
		sl := r.open[slotName]
		if sl == nil {
			sl = &slot{}
			r.open[slotName] = sl
		}
		sl.n++
		if sl.n == 1 {
			sl.id = s.ID
		} else {
			sl.id = 0
		}
	}
	r.mu.Unlock()
	s.Start = r.now()
	return s
}

func (r *recorder) end(s *span, slotName string) {
	s.End = r.now()
	r.mu.Lock()
	if slotName != "" {
		sl := r.open[slotName]
		sl.n--
		if sl.n == 0 {
			sl.id = 0
		}
	}
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// inFlight returns the single open span of a slot, or 0.
func (r *recorder) inFlight(slotName string) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if sl := r.open[slotName]; sl != nil && sl.n == 1 {
		return sl.id
	}
	return 0
}

// mark returns how many spans exist, so a phase can later select its own.
// Both are no-ops in the untraced pass.
func (b *bench) mark() int {
	if b.rec == nil {
		return 0
	}
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	return len(b.rec.spans)
}

// since returns the spans recorded after mark.
func (b *bench) since(mark int) []span {
	if b.rec == nil {
		return nil
	}
	b.rec.mu.Lock()
	defer b.rec.mu.Unlock()
	return append([]span(nil), b.rec.spans[mark:]...)
}

// writeFile writes every span as one JSON object per line.
func (r *recorder) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// durations returns, in ms, the duration of every span of the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// route maps a method and path to the bounded label spans are named by.
func route(method, path string) string {
	switch {
	case strings.HasPrefix(path, "/darr/"):
		return "darr " + strings.TrimPrefix(path, "/darr/")
	case strings.HasPrefix(path, "/store/objects/"):
		return "store " + method
	case strings.HasSuffix(path, "/stream"):
		return "lease stream"
	case strings.HasPrefix(path, "/leases"):
		return "lease " + method
	}
	return "other"
}

const (
	requestIDHeader = "X-Coda-Request-Id"
	spanHeader      = "X-Bench-Span" // carries the round trip's span id to the handler decorator
)

// tracedTransport records one span per HTTP round trip, ended when the
// response body has been read, which is what the caller waits for.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rt := route(req.Method, req.URL.Path)
	s := t.rec.begin("http "+rt, "", 0, req.Header.Get(requestIDHeader))
	if req.ContentLength > 0 {
		s.Out = req.ContentLength
	}
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.rec.end(s, "")
		return nil, err
	}
	if rt == "lease stream" {
		// The stream stays open for the lease's life; its span covers the
		// response headers only.
		t.rec.end(s, "")
		return resp, nil
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, done: func(n int64) {
		s.In = n
		t.rec.end(s, "")
	}}
	return resp, nil
}

// countingBody counts response bytes and reports once at EOF or Close.
type countingBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(int64)
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err == io.EOF {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() { b.done(b.n) })
	return b.ReadCloser.Close()
}

// tracedHandler records one span per request the server handles, parented
// to the client's round-trip span.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt := route(r.Method, r.URL.Path)
	if rt == "lease stream" {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	slotName := "handler " + rt
	s := h.rec.begin(slotName, slotName, parent, r.Header.Get(requestIDHeader))
	h.next.ServeHTTP(w, r)
	h.rec.end(s, slotName)
}

// tracedStore records the object-store calls of the server and the lease
// manager. Put and Get take no context, so their parent is the store
// request in flight, when there is exactly one.
type tracedStore struct {
	store.ObjectStore
	rec *recorder
	// fanoutGets counts Gets made outside any GET request: the lease
	// manager building one update per lease, a thousand per put. One in
	// fanoutSample of those gets a span; all of them would be millions.
	fanoutGets atomic.Int64
}

const fanoutSample = 64

func (t *tracedStore) Put(key string, data []byte) (uint64, error) {
	s := t.rec.begin("store.put", "store", t.rec.inFlight("handler store PUT"), "")
	s.Key, s.Out = key, int64(len(data))
	v, err := t.ObjectStore.Put(key, data)
	t.rec.end(s, "store")
	return v, err
}

func (t *tracedStore) Get(key string, have uint64) (*store.Reply, error) {
	parent := t.rec.inFlight("handler store GET")
	if parent == 0 && t.fanoutGets.Add(1)%fanoutSample != 0 {
		return t.ObjectStore.Get(key, have)
	}
	s := t.rec.begin("store.get", "", parent, "")
	s.Key = key
	reply, err := t.ObjectStore.Get(key, have)
	if err == nil {
		s.Name = "store.get " + reply.Kind()
		s.In = int64(reply.WireBytes())
	}
	t.rec.end(s, "")
	return reply, err
}

// tracedKV records the persistence calls under the object store and
// counts the user bytes written, for the amplification ratios.
type tracedKV struct {
	persist.KV
	rec *recorder

	mu        sync.Mutex
	userBytes int64
	stream    []kvOp // the first maxStream mutations, for the bolt replay
}

// kvOp is one recorded mutation: a put of size bytes, or a delete.
type kvOp struct {
	key  string
	size int // -1 for a delete
}

const maxStream = 1500

func (t *tracedKV) PutBatch(items []persist.Item) error {
	s := t.rec.begin("persist.putbatch", "", t.rec.inFlight("store"), "")
	var n int64
	for _, it := range items {
		n += int64(len(it.Key) + len(it.Value))
	}
	s.Out = n
	err := t.KV.PutBatch(items)
	t.rec.end(s, "")
	t.mu.Lock()
	t.userBytes += n
	for _, it := range items {
		if len(t.stream) < maxStream {
			t.stream = append(t.stream, kvOp{it.Key, len(it.Value)})
		}
	}
	t.mu.Unlock()
	return err
}

func (t *tracedKV) Delete(keys ...string) error {
	s := t.rec.begin("persist.delete", "", t.rec.inFlight("store"), "")
	err := t.KV.Delete(keys...)
	t.rec.end(s, "")
	t.mu.Lock()
	for _, k := range keys {
		if len(t.stream) < maxStream {
			t.stream = append(t.stream, kvOp{k, -1})
		}
	}
	t.mu.Unlock()
	return err
}

func (t *tracedKV) Compact() error {
	s := t.rec.begin("persist.compact", "", 0, "")
	err := t.KV.Compact()
	t.rec.end(s, "")
	return err
}

// tracedResults records the cooperation calls core.Search makes. It
// forwards every capability core discovers by type assertion (batching,
// claim release, flush), so the search runs the same protocol.
type tracedResults struct {
	next cooperation
	rec  *recorder
}

func (t *tracedResults) call(name string, fn func() error) error {
	s := t.rec.begin(name, "", 0, "")
	err := fn()
	t.rec.end(s, "")
	return err
}

func (t *tracedResults) Lookup(ctx context.Context, key string) (score float64, ok bool, err error) {
	err = t.call("darr.lookup", func() (e error) { score, ok, e = t.next.Lookup(ctx, key); return })
	return
}

func (t *tracedResults) Claim(ctx context.Context, key string) (granted bool, err error) {
	err = t.call("darr.claim", func() (e error) { granted, e = t.next.Claim(ctx, key); return })
	return
}

func (t *tracedResults) Publish(ctx context.Context, key string, score float64, explanation string) error {
	return t.call("darr.publish", func() error { return t.next.Publish(ctx, key, score, explanation) })
}

func (t *tracedResults) LookupBatch(ctx context.Context, keys []string) (scores map[string]float64, err error) {
	err = t.call("darr.lookup_batch", func() (e error) { scores, e = t.next.LookupBatch(ctx, keys); return })
	return
}

func (t *tracedResults) ClaimBatch(ctx context.Context, keys []string) (granted map[string]bool, err error) {
	s := t.rec.begin("darr.claim_batch", "", 0, "")
	s.Out = int64(len(keys))
	granted, err = t.next.ClaimBatch(ctx, keys)
	for _, g := range granted {
		if g {
			s.In++
		}
	}
	t.rec.end(s, "")
	return
}

func (t *tracedResults) Release(ctx context.Context, key string) error {
	return t.call("darr.release", func() error { return t.next.Release(ctx, key) })
}

func (t *tracedResults) Flush(ctx context.Context) error {
	return t.call("darr.flush", func() error { return t.next.Flush(ctx) })
}
