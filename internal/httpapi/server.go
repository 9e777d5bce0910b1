// Package httpapi exposes the DARR and the versioned home data store over
// HTTP — the wire tier connecting Figure 1's client nodes to the cloud
// analytics servers — and provides the matching client, which implements
// core.ResultStore so a remote DARR plugs straight into core.Search. The
// DARR and lease routes speak JSON; the object routes carry an object's
// bytes (or a delta's) as the body and the reply's metadata in X-Coda-*
// headers.
package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime/debug"
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
// http.Handler. Every request flows through the telemetry middleware:
// the caller's X-Coda-Request-Id is adopted (or a fresh one generated),
// stashed in the request context, echoed on the response, and attached
// to logs; per-route counters and latency histograms land in the
// Prometheus scrape at /metrics, and /healthz reports uptime, build
// info, breaker states, and component stats.
type Server struct {
	Repo *darr.Repo
	// Store is the data-tier seam: any store.ObjectStore backend (the
	// in-memory engine, the append-only log) serves the object routes.
	Store store.ObjectStore
	// Logger receives request logs (debug) and error logs (warn/error);
	// nil uses slog.Default().
	Logger *slog.Logger
	// MaxBatchKeys bounds the keys/records one batched DARR request may
	// carry; oversized batches get a 400. <= 0 uses DefaultMaxBatchKeys.
	MaxBatchKeys int
	// Leases, when set via EnableLeases, powers the real-time push
	// endpoints and routes object PUTs through its fanout so HTTP writes
	// reach subscribers.
	Leases *replication.Manager
	// MaxLeaseTTL caps requested lease durations; <= 0 uses
	// DefaultMaxLeaseTTL.
	MaxLeaseTTL time.Duration
	// StreamHeartbeat spaces the SSE keep-alive comments; <= 0 uses
	// DefaultStreamHeartbeat.
	StreamHeartbeat time.Duration

	mux    *http.ServeMux
	health map[string]func() any
	// maxBody caps a request body in bytes (maxBodyBytes; tests lower it).
	maxBody int64

	mbMu      sync.Mutex
	mailboxes map[string]*leaseMailbox
}

// DefaultMaxBatchKeys is the default cap on keys/records per batched
// DARR request — generous for real search graphs while keeping a single
// request body bounded.
const DefaultMaxBatchKeys = 1024

// maxBodyBytes is the largest body any route accepts (more is a 413) and the
// largest object reply a client reads: it bounds what one message can make
// either side allocate. maxPooledBody is the largest body buffer kept for
// reuse, so a rare large PUT does not pin one.
const maxBodyBytes, maxPooledBody = 64 << 20, 1 << 20

// NewServer builds the handler; either component may be nil to disable its
// endpoints.
func NewServer(repo *darr.Repo, hs store.ObjectStore) *Server {
	s := &Server{Repo: repo, Store: hs, mux: http.NewServeMux(), health: map[string]func() any{}, maxBody: maxBodyBytes}
	s.mux.Handle("/metrics", obs.MetricsHandler())
	s.mux.Handle("/healthz", obs.HealthHandler(s.health))
	s.mux.Handle("/debug/traces", trace.Handler())
	if repo != nil {
		s.mux.HandleFunc("/darr/records", s.handleRecords)
		s.mux.HandleFunc("/darr/claims", s.handleClaims)
		s.mux.HandleFunc("/darr/batch/lookup", s.handleBatchLookup)
		s.mux.HandleFunc("/darr/batch/claims", s.handleBatchClaims)
		s.mux.HandleFunc("/darr/batch/records", s.handleBatchRecords)
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
		s.mux.HandleFunc("/store/objects/", s.handleObjects)
		s.health["store"] = func() any { return hs.Stats() }
	}
	return s
}

func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// statusRecorder captures the response status and size for telemetry.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so SSE handlers can stream
// through the telemetry wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the concrete writer for
// per-request deadline control on streaming routes.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// routeLabel maps a request path to a bounded metrics label.
func routeLabel(path string) string {
	switch {
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	case path == "/debug/traces":
		return "traces"
	case path == "/darr/records":
		return "darr-records"
	case path == "/darr/claims":
		return "darr-claims"
	case path == "/darr/batch/lookup":
		return "darr-batch-lookup"
	case path == "/darr/batch/claims":
		return "darr-batch-claims"
	case path == "/darr/batch/records":
		return "darr-batch-records"
	case strings.HasPrefix(path, "/store/objects/"):
		return "store-objects"
	case path == "/leases":
		return "leases"
	case strings.HasPrefix(path, "/leases/"):
		switch {
		case strings.HasSuffix(path, "/stream"):
			return "lease-stream"
		case strings.HasSuffix(path, "/poll"):
			return "lease-poll"
		default:
			return "lease-ops"
		}
	default:
		return "other"
	}
}

// ServeHTTP implements http.Handler, wrapping the mux in the telemetry
// middleware: request-id adoption, trace-context adoption (the caller's
// span, carried in X-Coda-Traceparent, becomes this request span's
// parent), panic recovery, per-route metrics, and request logs.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	id := r.Header.Get(obs.RequestIDHeader)
	if id == "" {
		id = obs.NewRequestID()
	}
	w.Header().Set(obs.RequestIDHeader, id)
	route := routeLabel(r.URL.Path)
	ctx := obs.WithRequestID(r.Context(), id)
	// Scrape and introspection routes are excluded from tracing so the
	// ring holds real work, not the observers observing it; so are the
	// lease subscription streams, whose spans would span the whole
	// connection lifetime rather than a unit of work.
	var sp *trace.Span
	if route != "metrics" && route != "healthz" && route != "traces" &&
		route != "lease-stream" && route != "lease-poll" {
		ctx = trace.Extract(ctx, r.Header)
		ctx, sp = trace.Start(ctx, "server."+route,
			trace.String("method", r.Method), trace.String("request_id", id))
	}
	rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	defer func() {
		if p := recover(); p != nil {
			// net/http's sanctioned way to abort a connection must keep
			// working (the chaos injector relies on it).
			if err, ok := p.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(p)
			}
			// A panicking handler costs one request, not the connection:
			// count it, keep the stack, answer a structured 500.
			mPanics.Inc()
			rec.status = http.StatusInternalServerError
			s.logger().Error("handler panic",
				"request_id", id, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
			sp.SetAttr(trace.String("panic", fmt.Sprint(p)))
			if rec.bytes == 0 {
				writeJSON(rec, http.StatusInternalServerError,
					errorReply{Error: "internal server error", Status: http.StatusInternalServerError, RequestID: id})
			}
		}
		elapsed := time.Since(start)
		sp.SetAttr(trace.Int("status", rec.status))
		sp.End()
		obs.GetCounter(fmt.Sprintf(`coda_http_requests_total{route=%q,method=%q,code="%d"}`,
			route, r.Method, rec.status)).Inc()
		obs.GetHistogram(fmt.Sprintf(`coda_http_request_seconds{route=%q}`, route), nil).
			Observe(elapsed.Seconds())
		s.logger().Debug("http request",
			"request_id", id, "method", r.Method, "path", r.URL.Path,
			"code", rec.status, "bytes", rec.bytes, "elapsed", elapsed)
	}()
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	s.mux.ServeHTTP(rec, r.WithContext(ctx))
}

// body is a request body read whole into a pooled buffer.
type body struct{ b []byte }

var bodyPool = sync.Pool{New: func() any { return new(body) }}

// release recycles the buffer; the handler must be done with b, and nothing
// it called may have kept it (ObjectStore.Put copies, json.Unmarshal copies).
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
// readSized into a pooled buffer. nil: the reply (413, 400 for a short body)
// is written and counted.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) *body {
	if r.ContentLength > s.maxBody {
		w.Header().Set("Connection", "close") // reply now; net/http would first drain 256 KiB of it
	}
	buf := bodyPool.Get().(*body)
	var err error
	if buf.b, err = readSized(r.Body, r.ContentLength, s.maxBody, buf.b); err == nil {
		return buf
	}
	buf.release()
	status := http.StatusBadRequest
	if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	obs.GetCounter(fmt.Sprintf(`coda_http_request_body_rejected_total{route=%q}`, routeLabel(r.URL.Path))).Inc()
	s.writeError(w, r, status, fmt.Errorf("reading body: %w", err))
	return nil
}

// decodeBody reads a JSON request body into v; false means the error reply
// has been written.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	b := s.readBody(w, r)
	if b == nil {
		return false
	}
	defer b.release()
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
	s.logger().Log(r.Context(), level, "request failed",
		"request_id", id, "method", r.Method, "path", r.URL.Path,
		"status", status, "err", err)
	writeJSON(w, status, errorReply{Error: err.Error(), Status: status, RequestID: id})
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var rec darr.Record
		if !s.decodeBody(w, r, "record", &rec) {
			return
		}
		if err := s.Repo.Put(rec); err != nil {
			s.writeError(w, r, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"status": "stored"})
	case http.MethodGet:
		if key := r.URL.Query().Get("key"); key != "" {
			rec, err := s.Repo.Get(key)
			if errors.Is(err, darr.ErrNotFound) {
				s.writeError(w, r, http.StatusNotFound, err)
				return
			}
			if err != nil {
				s.writeError(w, r, http.StatusInternalServerError, err)
				return
			}
			writeJSON(w, http.StatusOK, rec)
			return
		}
		if fp := r.URL.Query().Get("dataset"); fp != "" {
			writeJSON(w, http.StatusOK, s.Repo.QueryByDataset(fp))
			return
		}
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("need key or dataset query parameter"))
	default:
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// claimRequest is the body of claim POST/DELETE calls.
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
	switch r.Method {
	case http.MethodPost:
		granted := s.Repo.Claim(req.Key, req.ClientID)
		writeJSON(w, http.StatusOK, map[string]bool{"granted": granted})
	case http.MethodDelete:
		s.Repo.Release(req.Key, req.ClientID)
		writeJSON(w, http.StatusOK, map[string]string{"status": "released"})
	default:
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
}

// Wire types of the batched DARR protocol: one request carries every
// key (or record) of a cooperative search phase, collapsing up to
// 3×units sequential round trips into three.
type batchLookupRequest struct {
	Keys []string `json:"keys"`
}

type batchLookupReply struct {
	// Scores maps only the keys that have published results.
	Scores map[string]float64 `json:"scores"`
}

type batchClaimRequest struct {
	Keys     []string `json:"keys"`
	ClientID string   `json:"client_id"`
}

type batchClaimReply struct {
	Granted map[string]bool `json:"granted"`
}

type batchRecordsRequest struct {
	Records []darr.Record `json:"records"`
}

func (s *Server) maxBatchKeys() int {
	if s.MaxBatchKeys > 0 {
		return s.MaxBatchKeys
	}
	return DefaultMaxBatchKeys
}

// checkBatch enforces the method and batch-size bounds shared by every
// batch endpoint; it reports whether the request may proceed.
func (s *Server) checkBatch(w http.ResponseWriter, r *http.Request, n int, what string) bool {
	if r.Method != http.MethodPost {
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return false
	}
	if n == 0 {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch needs at least one %s", what))
		return false
	}
	if limit := s.maxBatchKeys(); n > limit {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch of %d %ss exceeds limit %d", n, what, limit))
		return false
	}
	return true
}

func (s *Server) handleBatchLookup(w http.ResponseWriter, r *http.Request) {
	var req batchLookupRequest
	if r.Method == http.MethodPost && !s.decodeBody(w, r, "batch lookup", &req) {
		return
	}
	if !s.checkBatch(w, r, len(req.Keys), "key") {
		return
	}
	_, sp := trace.Start(r.Context(), "darr.get_batch", trace.Int("keys", len(req.Keys)))
	recs := s.Repo.GetBatch(req.Keys)
	sp.SetAttr(trace.Int("hits", len(recs)))
	sp.End()
	scores := make(map[string]float64, len(recs))
	for k, rec := range recs {
		scores[k] = rec.Score
	}
	writeJSON(w, http.StatusOK, batchLookupReply{Scores: scores})
}

func (s *Server) handleBatchClaims(w http.ResponseWriter, r *http.Request) {
	var req batchClaimRequest
	if r.Method == http.MethodPost && !s.decodeBody(w, r, "batch claim", &req) {
		return
	}
	if !s.checkBatch(w, r, len(req.Keys), "key") {
		return
	}
	if req.ClientID == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("batch claim needs client_id"))
		return
	}
	_, sp := trace.Start(r.Context(), "darr.claim_batch", trace.Int("keys", len(req.Keys)))
	granted := s.Repo.ClaimBatch(req.Keys, req.ClientID)
	sp.End()
	writeJSON(w, http.StatusOK, batchClaimReply{Granted: granted})
}

func (s *Server) handleBatchRecords(w http.ResponseWriter, r *http.Request) {
	var req batchRecordsRequest
	if r.Method == http.MethodPost && !s.decodeBody(w, r, "batch records", &req) {
		return
	}
	if !s.checkBatch(w, r, len(req.Records), "record") {
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

// The object routes' wire form. A pull's 200 carries the payload raw — the
// object's bytes (full), Delta.Marshal's (delta) or nothing (unchanged) —
// and the reply's metadata in these headers; a PUT's 200 carries the new
// version in versionHeader and no body. Errors stay JSON errorReply bodies.
const (
	versionHeader     = "X-Coda-Version"
	replyHeader       = "X-Coda-Reply"        // store.Reply.Kind: full, delta or unchanged
	baseVersionHeader = "X-Coda-Base-Version" // on a delta only
)

func (s *Server) handleObjects(w http.ResponseWriter, r *http.Request) {
	key := strings.TrimPrefix(r.URL.Path, "/store/objects/")
	if key == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("missing object key"))
		return
	}
	switch r.Method {
	case http.MethodPut:
		in := s.readBody(w, r)
		if in == nil {
			return
		}
		defer in.release()
		data := in.b
		var err error
		ctx, sp := trace.Start(r.Context(), "store.put",
			trace.String("key", key), trace.Int("bytes", len(data)))
		var version uint64
		if s.Leases != nil {
			// Route writes through the lease manager so every active
			// subscription sees this version; with an async manager the
			// fanout happens off the request path.
			version, err = s.Leases.PublishCtx(ctx, key, data)
			if err != nil && version != 0 {
				// The store write committed; per-lease fanout failures are
				// already counted and must not fail the writer's request.
				s.logger().Warn("publish fanout partially failed",
					"key", key, "version", version, "err", err)
				err = nil
			}
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
	case http.MethodGet:
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
	default:
		s.writeError(w, r, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
	}
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
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(payload)))
	h.Set(versionHeader, strconv.FormatUint(r.Version, 10))
	h.Set(replyHeader, r.Kind())
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
