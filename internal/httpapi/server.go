// Package httpapi exposes the DARR and the versioned home data store over
// HTTP — the wire tier connecting Figure 1's client nodes to the cloud
// analytics servers — and provides the matching client, which implements
// core.ResultStore so a remote DARR plugs straight into core.Search. The
// batch lookup and claim routes carry key digests and answer with bitmaps;
// the other DARR routes and the lease routes speak JSON; the object routes
// carry an object's bytes (or a delta's) as the body and the reply's
// metadata in X-Coda-* headers.
package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"coda/internal/darr"
	"coda/internal/delta"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/replication"
	"coda/internal/store"
)

// mPanics counts handler panics caught by the recovery layer.
var mPanics = obs.GetCounter("coda_http_panics_total")

// Server wires a DARR repository and a home data store into an
// http.Handler, and is the one HTTP serving chain every listener runs:
// coda-server's API, coda-client serve's /score (mounted with Handle) and
// the -debug-addr listeners (NewDebugServer). Every request flows through
// the telemetry middleware: the caller's X-Coda-Request-Id is adopted (or
// a fresh one generated), stashed in the request context, echoed on the
// response, and attached to logs; the body is capped; per-route counters
// and latency histograms land in the Prometheus scrape at /metrics, and
// /healthz reports uptime, build info and this server's components (its
// DARR, store and leases, and any added with AddHealth).
type Server struct {
	Repo *darr.Repo
	// Store is the data-tier seam: any store.ObjectStore backend (the
	// in-memory engine, the append-only log) serves the object routes.
	Store store.ObjectStore
	// Leases, when set via EnableLeases, powers the real-time push
	// endpoints and routes object PUTs through its fanout so HTTP writes
	// reach subscribers.
	Leases *replication.Manager

	mux    *http.ServeMux
	routes []*route // the route table, in mount order
	other  *route   // the catch-all "/": a 404 for what no route matched
	health map[string]func() any
	// maxBody caps a request body in bytes (maxBodyBytes; tests lower it).
	maxBody int64
	// maxBatchKeys caps the keys/records of one batched DARR request
	// (DefaultMaxBatchKeys, where clients cut their batches; tests lower it).
	maxBatchKeys int
	// heartbeat spaces the SSE keep-alive comments, and one write to a
	// lease stream or a DARR wait's reply may block for two of them: a
	// reader slower than that is cut off rather than holding its handler,
	// and so Shutdown, indefinitely (DefaultStreamHeartbeat; tests lower
	// it).
	heartbeat time.Duration
	// shutdown ends at EndLongPolls: every parked DARR wait answers and
	// every lease stream closes.
	shutdown     context.Context
	endLongPolls context.CancelFunc

	mbMu      sync.Mutex
	mailboxes map[string]*leaseMailbox
}

// DefaultMaxBatchKeys is the cap on keys/records per batched DARR
// request — generous for real search graphs while keeping a single
// request body bounded. Clients cut their batches at it.
const DefaultMaxBatchKeys = 1024

// maxBodyBytes is the largest body any route accepts (more is a 413) and the
// largest object reply a client reads: it bounds what one message can make
// either side allocate. maxPooledBody is the largest body buffer kept for
// reuse, so a rare large PUT does not pin one.
const maxBodyBytes, maxPooledBody = 64 << 20, 1 << 20

// The timeouts of an http.Server in front of a Server: coda-server's flag
// defaults, and what coda-client serve uses. The header deadline is
// DefaultReadTimeout too.
const (
	DefaultReadTimeout  = 30 * time.Second
	DefaultWriteTimeout = 30 * time.Second
	DefaultIdleTimeout  = 2 * time.Minute
)

// NewServer builds the handler; either component may be nil to disable its
// endpoints.
func NewServer(repo *darr.Repo, hs store.ObjectStore) *Server {
	s := &Server{Repo: repo, Store: hs, mux: http.NewServeMux(), health: map[string]func() any{}, maxBody: maxBodyBytes, maxBatchKeys: DefaultMaxBatchKeys, heartbeat: DefaultStreamHeartbeat}
	s.shutdown, s.endLongPolls = context.WithCancel(context.Background())
	s.other = s.route("other", "/", traced)
	s.mux.Handle("/", s.other.serve(func(w http.ResponseWriter, r *http.Request) {
		s.writeError(w, r, http.StatusNotFound, fmt.Errorf("no route for %s", r.URL.Path))
	}))
	s.mount("metrics", "/metrics", untraced, methods{http.MethodGet: obs.MetricsHandler().ServeHTTP})
	s.mount("healthz", "/healthz", untraced, methods{http.MethodGet: obs.HealthHandler(s.health).ServeHTTP})
	s.mount("traces", "/debug/traces", untraced, methods{http.MethodGet: trace.Handler().ServeHTTP})
	if repo != nil {
		s.mount("darr-records", "/darr/records", traced, methods{http.MethodGet: s.handleRecords})
		s.mount("darr-claims", "/darr/claims", traced, methods{http.MethodDelete: s.handleClaims})
		s.mount("darr-batch-lookup", "/darr/batch/lookup", traced, methods{http.MethodPost: s.handleBatchLookup})
		s.mount("darr-batch-claims", "/darr/batch/claims", traced, methods{http.MethodPost: s.handleBatchClaims})
		s.mount("darr-batch-records", "/darr/batch/records", traced, methods{http.MethodPost: s.handleBatchRecords})
		s.mount("darr-batch-wait", "/darr/batch/wait", traced, methods{http.MethodPost: s.handleBatchWait})
		s.health["darr"] = func() any {
			lookups, hits, puts := repo.Stats()
			h := map[string]any{
				"records": repo.Len(), "active_claims": repo.ActiveClaims(),
				"lookups": lookups, "hits": hits, "puts": puts,
			}
			if st, ok := repo.PersistStats(); ok {
				h["backend"] = st.Backend
				h["persist"] = st
			}
			return h
		}
	}
	if hs != nil {
		s.mount("store-objects", "/store/objects/", traced, methods{http.MethodPut: s.handlePut, http.MethodGet: s.handleGet})
		s.health["store"] = func() any { return hs.Stats() }
	}
	return s
}

// Whether a route's requests get a server span. The scrape, introspection
// and profiling routes are untraced, so the ring holds real work and not
// the observers observing it; so are the lease streams, whose spans would
// last the whole connection rather than a unit of work.
const traced, untraced = true, false

// methods maps each method a route serves to its handler.
type methods map[string]http.HandlerFunc

// route is one row of the route table: the label its requests are counted
// and traced under, its path pattern, the methods it serves and whether it
// is traced. The catch-all "other" is a route outside the table, with no
// methods: it answers every request with a 404. Its histogram and
// body-refusal counter are resolved on first use, so a route shows in the
// scrape once it has served a request.
type route struct {
	label, pattern string
	methods        []string
	traced         bool
	seconds        func() *obs.Histogram
	rejected       func() *obs.Counter
}

// route makes a route; mount enters it in the route table.
func (s *Server) route(label, pattern string, traced bool) *route {
	rt := &route{
		label: label, pattern: pattern, traced: traced,
		seconds: sync.OnceValue(func() *obs.Histogram {
			return obs.GetHistogram(`coda_http_request_seconds{route="`+label+`"}`, nil)
		}),
		rejected: sync.OnceValue(func() *obs.Counter {
			return obs.GetCounter(`coda_http_request_body_rejected_total{route="` + label + `"}`)
		}),
	}
	return rt
}

// mount serves pattern with one handler per method, a GET handler serving
// HEAD too; any other method gets a JSON 405 whose Allow header names the
// route's methods.
func (s *Server) mount(label, pattern string, traced bool, hs methods) {
	rt := s.route(label, pattern, traced)
	s.routes = append(s.routes, rt)
	if h := hs[http.MethodGet]; h != nil {
		hs[http.MethodHead] = h
	}
	for m := range hs {
		rt.methods = append(rt.methods, m)
	}
	slices.Sort(rt.methods)
	allow := strings.Join(rt.methods, ", ")
	s.mux.Handle(pattern, rt.serve(func(w http.ResponseWriter, r *http.Request) {
		if h := hs[r.Method]; h != nil {
			h(w, r)
			return
		}
		w.Header().Set("Allow", allow)
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}))
}

// serve wraps h as a handler of this route: the request is counted under
// the route, carries its request id in its context and, on a traced route,
// runs under a server span that adopts the caller's.
func (rt *route) serve(h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := w.(*statusRecorder)
		rec.route = rt
		ctx := obs.WithRequestID(r.Context(), rec.id)
		if rt.traced && trace.Enabled() {
			ctx, rec.span = trace.Start(trace.Extract(ctx, r.Header), "server."+rt.label,
				trace.String("method", r.Method), trace.String("request_id", rec.id))
		}
		h(w, r.WithContext(ctx))
	})
}

// requests is the coda_http_requests_total series of one of the route's
// requests. A method is an HTTP token, so it needs no quoting.
func (rt *route) requests(method string, status int) *obs.Counter {
	return obs.GetCounter(`coda_http_requests_total{route="` + rt.label + `",method="` + method + `",code="` + strconv.Itoa(status) + `"}`)
}

// Handle mounts h at pattern, a path pattern with no method, behind the
// server's handler chain: its requests are counted, timed and traced under
// label, h answers the methods given (a GET serves HEAD too), and any other
// method gets the table's JSON 405 with Allow.
func (s *Server) Handle(label, pattern string, h http.Handler, serves ...string) {
	hs := methods{}
	for _, m := range serves {
		hs[m] = h.ServeHTTP
	}
	s.mount(label, pattern, traced, hs)
}

// AddHealth adds a named component to this server's /healthz report. fn
// must be safe for concurrent use and cheap; add components before serving.
func (s *Server) AddHealth(name string, fn func() any) { s.health[name] = fn }

// NewDebugServer is the -debug-addr listener's handler: /metrics, /healthz
// and /debug/traces, as every Server has, plus net/http/pprof.
func NewDebugServer() *Server {
	s := NewServer(nil, nil)
	s.mount("pprof", "/debug/pprof/", untraced, methods{http.MethodGet: pprof.Index})
	s.mount("pprof", "/debug/pprof/cmdline", untraced, methods{http.MethodGet: pprof.Cmdline})
	s.mount("pprof", "/debug/pprof/profile", untraced, methods{http.MethodGet: pprof.Profile})
	s.mount("pprof", "/debug/pprof/symbol", untraced, methods{http.MethodGet: pprof.Symbol, http.MethodPost: pprof.Symbol})
	s.mount("pprof", "/debug/pprof/trace", untraced, methods{http.MethodGet: pprof.Trace})
	return s
}

// ListenDebug is both binaries' -debug-addr listener. It binds addr before
// returning, so a busy port is an error the command stops on, logs the
// address bound (":0" names the port the kernel picked), and serves
// NewDebugServer on it in the background.
func ListenDebug(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("debug listener: %w", err)
	}
	slog.Info("debug server listening", "addr", ln.Addr().String(),
		"endpoints", "/debug/pprof/ /metrics /healthz /debug/traces")
	go func() {
		if err := http.Serve(ln, NewDebugServer()); err != nil {
			slog.Error("debug server failed", "err", err)
		}
	}()
	return nil
}

// EndLongPolls answers every parked DARR wait with the 204 of a wait
// that ran out and closes every lease stream, now and for the rest of the
// server's life. http.Server.Shutdown waits for running handlers without
// cancelling their contexts, so a server that serves long polls registers
// this with RegisterOnShutdown; otherwise a parked request holds the
// shutdown for up to its wait.
func (s *Server) EndLongPolls() { s.endLongPolls() }

// statusRecorder captures the response status and size for telemetry. The
// first status committed — by WriteHeader, or an implicit 200 by Write or
// Flush — is the request's: a later WriteHeader does not relabel it, and
// recovery writes nothing into a committed response. It carries the
// request's id, and the route that serves it (at first the catch-all, for
// a redirect the mux answers itself) and that route's span.
type statusRecorder struct {
	http.ResponseWriter
	status    int
	bytes     int64
	committed bool
	id        string
	route     *route
	span      *trace.Span
}

func (r *statusRecorder) WriteHeader(status int) {
	if !r.committed {
		r.status, r.committed = status, true
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	r.committed = true
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the telemetry wrapper.
func (r *statusRecorder) Flush() {
	r.committed = true
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the concrete writer for
// per-request deadline control on streaming routes.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// ServeHTTP implements http.Handler, wrapping the mux in the telemetry
// middleware: request-id adoption, panic recovery, per-route metrics and
// request logs; the route's own wrapper (route.serve) adds the server span.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(obs.RequestIDHeader)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK, id: id, route: s.other}
	defer func() {
		if p := recover(); p != nil {
			// net/http's sanctioned way to abort a connection must keep
			// working (the chaos injector relies on it).
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			// A panicking handler costs one request, not the connection:
			// count it, keep the stack, answer a structured 500 unless a
			// status is already on its way to the client.
			mPanics.Inc()
			slog.Default().Error("handler panic",
				"request_id", id, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			rec.span.SetAttr(trace.String("panic", fmt.Sprint(p)))
			if !rec.committed {
				writeJSON(rec, http.StatusInternalServerError,
					errorReply{Error: "internal server error", Status: http.StatusInternalServerError, RequestID: id})
			}
		}
		elapsed := time.Since(start)
		// The span attribute and the log arguments are built only when
		// they are kept: each would allocate on every request otherwise.
		if rec.span != nil {
			rec.span.SetAttr(trace.Int("status", rec.status))
			rec.span.End()
		}
		rec.route.requests(r.Method, rec.status).Inc()
		rec.route.seconds().Observe(elapsed.Seconds())
		if l := slog.Default(); l.Enabled(r.Context(), slog.LevelDebug) {
			l.Debug("http request",
				"request_id", id, "method", r.Method, "path", r.URL.Path,
				"code", rec.status, "bytes", rec.bytes, "elapsed", elapsed)
		}
	}()
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(rec, r)
}

// body is a request body read whole into a pooled buffer.
type body struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// release recycles the buffer; the handler must be done with b, and nothing
// it called may have kept it (json.Unmarshal copies). A PUT's body is never
// pooled: ObjectStore.Put keeps it.
func (b *body) release() {
	if cap(b.b) <= maxPooledBody {
		bodyPool.Put(b)
	}
}

// readSized is the one way either side reads a whole body, of declared length
// n (-1: unknown), into buf's storage: a length over limit is refused before
// anything is allocated; a declared length is read into exactly that many
// bytes, a short body failing with io.ErrUnexpectedEOF (io.EOF if none of it
// came), both transient to the retry layer; an unknown one grows until it
// passes limit.
func readSized(r io.Reader, n, limit int64, buf []byte) ([]byte, error) {
	switch {
	case n > limit:
		return buf, &http.MaxBytesError{Limit: limit}
	case n >= 0:
		if int64(cap(buf)) < n {
			buf = make([]byte, n)
		}
		buf = buf[:n]
		_, err := io.ReadFull(r, buf)
		return buf, err
	default:
		grown := bytes.NewBuffer(buf[:0])
		_, err := grown.ReadFrom(io.LimitReader(r, limit+1))
		if err == nil && int64(grown.Len()) > limit {
			err = &http.MaxBytesError{Limit: limit}
		}
		return grown.Bytes(), err
	}
}

// readBody is the one way a handler reads a whole request body, through
// readSized into buf's storage (nil: a new buffer of the declared length).
// false: the reply (413, 400 for a short body) is written and counted.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request, buf []byte) ([]byte, bool) {
	if r.ContentLength > s.maxBody {
		w.Header().Set("Connection", "close") // reply now; net/http would first drain 256 KiB of it
	}
	buf, err := readSized(r.Body, r.ContentLength, s.maxBody, buf)
	if err == nil {
		return buf, true
	}
	status := http.StatusBadRequest
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	w.(*statusRecorder).route.rejected().Inc()
	s.writeError(w, r, status, fmt.Errorf("reading body: %w", err))
	return buf, false
}

// readPooled reads a request body through readBody into a pooled buffer the
// caller releases; nil: the error reply is written.
func (s *Server) readPooled(w http.ResponseWriter, r *http.Request) *body {
	b := bodyPool.Get().(*body)
	var ok bool
	if b.b, ok = s.readBody(w, r, b.b); !ok {
		b.release()
		return nil
	}
	return b
}

// decodeBody reads a JSON request body into v; an empty body leaves v at
// its zero value, so a request of defaults (a renew with no TTL) needs
// none, and the handler's own checks refuse what that leaves missing.
// false means the error reply has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	b := s.readPooled(w, r)
	if b == nil {
		return false
	}
	defer b.release()
	if len(b.b) == 0 {
		return true
	}
	if err := json.Unmarshal(b.b, v); err != nil {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("decoding %s: %w", what, err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorReply is the structured JSON error body every endpoint returns.
type errorReply struct {
	Error     string `json:"error"`
	Status    int    `json:"status"`
	RequestID string `json:"request_id,omitempty"`
}

// writeError logs the failure (warn for client errors, error for server
// errors) and answers with a structured JSON body carrying the request id.
func (s *Server) writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	id := obs.RequestID(r.Context())
	level := slog.LevelWarn
	if status >= 500 {
		level = slog.LevelError
	}
	slog.Default().Log(r.Context(), level, "request failed",
		"request_id", id, "method", r.Method, "path", r.URL.Path,
		"status", status, "err", err)
	writeJSON(w, status, errorReply{Error: err.Error(), Status: status, RequestID: id})
}

// handleRecords lists a dataset's records (GET ?dataset=fp).
func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	fp := r.URL.Query().Get("dataset")
	if fp == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("need dataset query parameter"))
		return
	}
	writeJSON(w, http.StatusOK, s.Repo.QueryByDataset(fp))
}

// claimRequest is the body of a claim release (DELETE /darr/claims).
type claimRequest struct {
	Key      string `json:"key"`
	ClientID string `json:"client_id"`
}

func (s *Server) handleClaims(w http.ResponseWriter, r *http.Request) {
	var req claimRequest
	if !s.decodeBody(w, r, "claim", &req) {
		return
	}
	if req.Key == "" || req.ClientID == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("claim needs key and client_id"))
		return
	}
	s.Repo.Release(req.Key, req.ClientID)
	writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
}

// The batch lookup, claim and wait routes' wire form, the protocol a
// search speaks. A request body is n concatenated darr.Digest values, 0 < n
// ≤ DefaultMaxBatchKeys, of type octetStream (any other type is a 415); a
// claim names its client in clientIDHeader. A lookup's 200 is
// lookupReplyShape: bit i of the bitmap, least significant first, answers
// digest i, and the scores follow in request order. A claim's 200 is
// claimReplyShape. A wait's 200 and 204 have no body.
const (
	octetStream    = "application/octet-stream"
	digestSize     = len(darr.Digest{})
	digestsShape   = "n×32-byte SHA-256 unit key digests"
	clientIDHeader = "X-Coda-Client-Id"
)

type batchRecordsRequest struct {
	Records []darr.Record `json:"records"`
}

// checkBatch enforces the batch-size bounds shared by every batch endpoint;
// it reports whether the request may proceed.
func (s *Server) checkBatch(w http.ResponseWriter, r *http.Request, n int, what string) bool {
	if n == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch needs at least one %s", what))
		return false
	}
	if n > s.maxBatchKeys {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch of %d %ss exceeds limit %d", n, what, s.maxBatchKeys))
		return false
	}
	return true
}

// readDigests reads a lookup, claim or wait body; false means the error
// reply has been written.
func (s *Server) readDigests(w http.ResponseWriter, r *http.Request) ([]darr.Digest, bool) {
	if ct := r.Header.Get("Content-Type"); ct != octetStream {
		s.writeError(w, r, http.StatusUnsupportedMediaType, fmt.Errorf(
			"body of type %q, want %s: %s (upgrade servers and clients together)", ct, octetStream, digestsShape))
		return nil, false
	}
	b := s.readPooled(w, r)
	if b == nil {
		return nil, false
	}
	defer b.release()
	if len(b.b)%digestSize != 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("body of %d bytes is not %s", len(b.b), digestsShape))
		return nil, false
	}
	if !s.checkBatch(w, r, len(b.b)/digestSize, "key") {
		return nil, false
	}
	ds := make([]darr.Digest, len(b.b)/digestSize)
	for i := range ds {
		ds[i] = darr.Digest(b.b[i*digestSize:])
	}
	return ds, true
}

func (s *Server) handleBatchLookup(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.readDigests(w, r)
	if !ok {
		return
	}
	_, sp := trace.Start(r.Context(), "darr.get_batch", trace.Int("keys", len(ds)))
	m := bitmapLen(len(ds))
	reply := make([]byte, m, m+8*len(ds))
	s.Repo.LookupDigests(ds, func(i int, rec darr.Record) {
		setBit(reply, i)
		reply = binary.LittleEndian.AppendUint64(reply, math.Float64bits(rec.Score))
	})
	sp.SetAttr(trace.Int("hits", (len(reply)-m)/8))
	sp.End()
	writeRaw(w, reply)
}

func (s *Server) handleBatchClaims(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.readDigests(w, r)
	if !ok {
		return
	}
	clientID := r.Header.Get(clientIDHeader)
	if clientID == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch claim needs the %s header", clientIDHeader))
		return
	}
	_, sp := trace.Start(r.Context(), "darr.claim_batch", trace.Int("keys", len(ds)))
	granted := s.Repo.ClaimDigests(ds, clientID)
	sp.End()
	reply := make([]byte, bitmapLen(len(ds)))
	for i, g := range granted {
		if g {
			setBit(reply, i)
		}
	}
	writeRaw(w, reply)
}

func (s *Server) handleBatchRecords(w http.ResponseWriter, r *http.Request) {
	var req batchRecordsRequest
	if !s.decodeBody(w, r, "batch records", &req) || !s.checkBatch(w, r, len(req.Records), "record") {
		return
	}
	_, sp := trace.Start(r.Context(), "darr.put_batch", trace.Int("records", len(req.Records)))
	err := s.Repo.PutBatch(req.Records)
	sp.End()
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]int{"stored": len(req.Records)})
}

// handleBatchWait serves POST /darr/batch/wait?wait=D, the long poll a
// search parks on while peers hold the units it has left. The body is a
// lookup's digests. It answers 200 with no body once one of them has a
// record, no claim or an expired claim — at once if one does already —
// and 204 when the wait runs out first.
func (s *Server) handleBatchWait(w http.ResponseWriter, r *http.Request) {
	ds, ok := s.readDigests(w, r)
	if !ok {
		return
	}
	ctx, answer, ok := s.park(w, r)
	if !ok {
		return
	}
	err := s.Repo.WaitDigests(ctx, ds)
	answer()
	if err != nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// The DARR wait's long-poll bounds: the wait a client asks for, and the
// most the server parks a request whatever it asks.
const (
	DefaultLongPollWait = 25 * time.Second
	MaxLongPollWait     = 2 * time.Minute
)

// park is the one way a handler starts a long poll: it reads the wait
// parameter (DefaultLongPollWait when absent, at most MaxLongPollWait) and
// lifts the server's write deadline, which would otherwise cut the reply
// of a request held past it. The request then parks on ctx, which ends
// when the wait runs out, the client goes or EndLongPolls is called;
// answer ends the park and sets a write deadline of two heartbeats, and
// must be called before the reply is written. false: the 400 is written.
func (s *Server) park(w http.ResponseWriter, r *http.Request) (ctx context.Context, answer func(), ok bool) {
	wait := DefaultLongPollWait
	if ws := r.URL.Query().Get("wait"); ws != "" {
		d, err := time.ParseDuration(ws)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad wait parameter: %w", err))
			return nil, nil, false
		}
		wait = min(d, MaxLongPollWait)
	}
	rc := http.NewResponseController(w)
	_ = rc.SetWriteDeadline(time.Time{})
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	unhook := context.AfterFunc(s.shutdown, cancel)
	return ctx, func() {
		unhook()
		cancel()
		_ = rc.SetWriteDeadline(time.Now().Add(2 * s.heartbeat))
	}, true
}

// The object routes' wire form. A pull's 200 carries the payload raw — the
// object's bytes (full), Delta.Marshal's (delta) or nothing (unchanged) —
// and the reply's metadata in these headers; a PUT's 200 carries the new
// version in versionHeader and no body. Errors stay JSON errorReply bodies.
const (
	versionHeader     = "X-Coda-Version"
	replyHeader       = "X-Coda-Reply"        // store.Reply.Kind: full, delta or unchanged
	baseVersionHeader = "X-Coda-Base-Version" // on a delta only
)

// objectKey is the object a /store/objects/{key} request names; false: the
// 400 is written.
func (s *Server) objectKey(w http.ResponseWriter, r *http.Request) (string, bool) {
	key := strings.TrimPrefix(r.URL.Path, "/store/objects/")
	if key == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing object key"))
		return "", false
	}
	return key, true
}

// handlePut stores a new version of an object (PUT /store/objects/{key}).
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	key, ok := s.objectKey(w, r)
	if !ok {
		return
	}
	// A buffer of its own, exactly the body's length: the store keeps it as
	// the new version.
	data, ok := s.readBody(w, r, nil)
	if !ok {
		return
	}
	var err error
	ctx, sp := trace.Start(r.Context(), "store.put",
		trace.String("key", key), trace.Int("bytes", len(data)))
	var version uint64
	if s.Leases != nil {
		// Route writes through the lease manager so every active
		// subscription sees this version; the fanout happens off the
		// request path.
		version, err = s.Leases.PublishCtx(ctx, key, data)
	} else {
		version, err = s.Store.Put(key, data)
	}
	sp.End()
	if err != nil {
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set(versionHeader, strconv.FormatUint(version, 10))
	w.WriteHeader(http.StatusOK)
}

// handleGet pulls an object (GET /store/objects/{key}?have=N).
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	key, ok := s.objectKey(w, r)
	if !ok {
		return
	}
	var have uint64
	if hs := r.URL.Query().Get("have"); hs != "" {
		v, err := strconv.ParseUint(hs, 10, 64)
		if err != nil {
			s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("bad have parameter: %w", err))
			return
		}
		have = v
	}
	_, sp := trace.Start(r.Context(), "store.get",
		trace.String("key", key), trace.Int64("have", int64(have)))
	reply, err := s.Store.Get(key, have)
	if err != nil {
		sp.End()
		if errors.Is(err, store.ErrNotFound) {
			s.writeError(w, r, http.StatusNotFound, err)
			return
		}
		s.writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	// Whether this pull went out as a delta or a full copy is the
	// bandwidth question the paper's data tier exists to answer.
	sp.SetAttr(trace.String("kind", reply.Kind()), trace.Int("wire_bytes", reply.WireBytes()))
	sp.End()
	writeReply(w, reply)
}

// writeReply answers a pull with reply in the object routes' wire form.
func writeReply(w http.ResponseWriter, r *store.Reply) {
	h := w.Header()
	var payload []byte
	switch {
	case r.Unchanged:
	case r.IsDelta():
		payload = r.Delta.Marshal()
		h.Set(baseVersionHeader, strconv.FormatUint(r.BaseVersion, 10))
	default:
		payload = r.Full
	}
	h.Set(versionHeader, strconv.FormatUint(r.Version, 10))
	h.Set(replyHeader, r.Kind())
	writeRaw(w, payload)
}

// writeRaw answers 200 with payload as the whole body.
func writeRaw(w http.ResponseWriter, payload []byte) {
	w.Header().Set("Content-Type", octetStream)
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload) // a failed write is the client hanging up
}

// readReply is writeReply's inverse on the client: the store.Reply for key
// that a 200 pull's headers h and body describe. A missing or unknown
// reply kind, or a version header that does not parse, is an error naming
// the header; a delta that does not decode wraps delta.ErrCorrupt.
func readReply(key string, h http.Header, body []byte) (*store.Reply, error) {
	reply := &store.Reply{Key: key}
	var err error
	switch kind := h.Get(replyHeader); kind {
	case "unchanged":
		reply.Unchanged = true
	case "full":
		reply.Full = body
	case "delta":
		if reply.BaseVersion, err = versionIn(h, baseVersionHeader); err != nil {
			return nil, err
		}
		if reply.Delta, err = delta.Unmarshal(body); err != nil {
			return nil, fmt.Errorf("httpapi: parsing delta: %w", err)
		}
	default:
		return nil, fmt.Errorf("httpapi: %s header %q is not full, delta or unchanged", replyHeader, kind)
	}
	if reply.Version, err = versionIn(h, versionHeader); err != nil {
		return nil, err
	}
	return reply, nil
}

// versionIn parses the version a header carries.
func versionIn(h http.Header, name string) (uint64, error) {
	v, err := strconv.ParseUint(h.Get(name), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("httpapi: %s header: %w", name, err)
	}
	return v, nil
}
