package httpapi

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"coda/internal/delta"
	"coda/internal/obs/trace"
	"coda/internal/replication"
	"coda/internal/store"
)

// Lease serving-tier defaults: subscription TTLs and the SSE heartbeat
// that keeps idle streams alive through proxies.
const (
	DefaultLeaseTTL        = time.Minute
	DefaultMaxLeaseTTL     = time.Hour
	DefaultStreamHeartbeat = 15 * time.Second
)

// EnableLeases mounts the real-time push endpoints — POST /leases,
// GET /leases/{id}/stream (SSE), POST /leases/{id}/renew and /ack, and
// DELETE /leases/{id} — backed by m, and routes object PUTs through m so
// HTTP writes reach subscribers. The manager's OnRelease hook is chained
// to tear down each lease's stream mailbox when the lease leaves the
// registry (cancelled, expired, or swept), which ends any open stream for
// it.
func (s *Server) EnableLeases(m *replication.Manager) {
	s.Leases = m
	s.mailboxes = map[string]*leaseMailbox{}
	prev := m.OnRelease
	m.OnRelease = func(l *replication.Lease) {
		if prev != nil {
			prev(l)
		}
		s.releaseMailbox(l.ID)
	}
	s.mount("leases", "/leases", traced, methods{http.MethodPost: s.handleLeases})
	s.mount("lease-ops", "/leases/{id}", traced, methods{http.MethodDelete: s.withLease(s.handleLeaseCancel)})
	s.mount("lease-ops", "/leases/{id}/renew", traced, methods{http.MethodPost: s.withLease(s.handleLeaseRenew)})
	s.mount("lease-ops", "/leases/{id}/ack", traced, methods{http.MethodPost: s.withLease(s.handleLeaseAck)})
	s.mount("lease-stream", "/leases/{id}/stream", untraced, methods{http.MethodGet: s.withLease(s.handleLeaseStream)})
	s.health["leases"] = func() any { return m.Stats() }
}

// Wire types of the lease protocol.

// leaseRequest is the body of POST /leases.
type leaseRequest struct {
	Key      string `json:"key"`
	ClientID string `json:"client_id"`
	// Mode is "value", "delta", or "notify" (Section III's three push
	// payloads); empty defaults to "notify".
	Mode string `json:"mode"`
	// TTLSeconds bounds the lease; 0 uses the server default.
	TTLSeconds float64 `json:"ttl_seconds"`
	// HaveVersion seeds the acknowledged version so delta pushes and
	// change estimates start from the replica state the client already
	// holds.
	HaveVersion uint64 `json:"have_version,omitempty"`
}

// LeaseInfo describes a granted lease.
type LeaseInfo struct {
	LeaseID    string  `json:"lease_id"`
	Key        string  `json:"key"`
	ClientID   string  `json:"client_id"`
	Mode       string  `json:"mode"`
	TTLSeconds float64 `json:"ttl_seconds"`
	// CurrentVersion is the object's version at grant/renew time (0 when
	// the object does not exist yet), so subscribers know whether they
	// are already current.
	CurrentVersion uint64 `json:"current_version"`
}

// Notification is one pushed frame: the coalesced result of one or more
// publishes to the leased object. Value and delta leases carry the payload
// a pull would, in base64 because SSE is a text protocol; notify leases
// carry only the version and a change-size estimate.
type Notification struct {
	LeaseID      string `json:"lease_id"`
	Key          string `json:"key"`
	Version      uint64 `json:"version"`
	Mode         string `json:"mode"`
	Coalesced    int    `json:"coalesced"`
	ChangedBytes int    `json:"changed_bytes,omitempty"`
	Unchanged    bool   `json:"unchanged,omitempty"`
	Full         string `json:"full,omitempty"`  // base64
	Delta        string `json:"delta,omitempty"` // base64 of delta wire format
	BaseVersion  uint64 `json:"base_version,omitempty"`
}

// renewRequest is the body of POST /leases/{id}/renew.
type renewRequest struct {
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ackRequest is the body of POST /leases/{id}/ack.
type ackRequest struct {
	Version uint64 `json:"version"`
}

// modeToWire names a push mode on the wire: replication's name for it
// without the "push-" prefix.
func modeToWire(m replication.PushMode) string { return strings.TrimPrefix(m.String(), "push-") }

// modeFromWire parses the wire name of a push mode; empty means notify.
func modeFromWire(s string) (replication.PushMode, error) {
	for _, m := range []replication.PushMode{replication.PushNotify, replication.PushDelta, replication.PushValue} {
		if s == modeToWire(m) || (s == "" && m == replication.PushNotify) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown push mode %q (want value, delta, or notify)", s)
}

// objectReply is a pushed frame's form of a store.Reply. SSE is a text
// protocol, so the payload travels in base64 inside the frame's JSON.
type objectReply struct {
	Key         string `json:"key"`
	Version     uint64 `json:"version"`
	Unchanged   bool   `json:"unchanged,omitempty"`
	Full        string `json:"full,omitempty"`  // base64
	Delta       string `json:"delta,omitempty"` // base64 of delta wire format
	BaseVersion uint64 `json:"base_version,omitempty"`
}

// replyToWire puts a reply (nil for a payload-free push notification) into
// its pushed-frame form.
func replyToWire(key string, version uint64, r *store.Reply) objectReply {
	out := objectReply{Key: key, Version: version}
	if r == nil {
		return out
	}
	out.BaseVersion, out.Unchanged = r.BaseVersion, r.Unchanged
	switch {
	case r.Unchanged:
		// no payload
	case r.IsDelta():
		out.Delta = base64.StdEncoding.EncodeToString(r.Delta.Marshal())
	default:
		out.Full = base64.StdEncoding.EncodeToString(r.Full)
	}
	return out
}

// decodeReply converts the pushed-frame form back into a store.Reply.
func decodeReply(or objectReply) (*store.Reply, error) {
	reply := &store.Reply{Key: or.Key, Version: or.Version, BaseVersion: or.BaseVersion, Unchanged: or.Unchanged}
	if or.Unchanged {
		return reply, nil
	}
	if or.Delta != "" {
		raw, err := base64.StdEncoding.DecodeString(or.Delta)
		if err != nil {
			return nil, fmt.Errorf("httpapi: decoding delta: %w", err)
		}
		d, err := delta.Unmarshal(raw)
		if err != nil {
			return nil, fmt.Errorf("httpapi: parsing delta: %w", err)
		}
		reply.Delta = d
		return reply, nil
	}
	raw, err := base64.StdEncoding.DecodeString(or.Full)
	if err != nil {
		return nil, fmt.Errorf("httpapi: decoding full value: %w", err)
	}
	reply.Full = raw
	return reply, nil
}

// encodeShared renders the part of a frame every lease of its group has in
// common — key, version and payload, as an objectReply. It runs once per
// group build (replication.Update.Encoded), however many mailboxes the
// frame lands in.
func encodeShared(u replication.Update) []byte {
	body, err := json.Marshal(replyToWire(u.Key, u.Version, u.Reply))
	if err != nil {
		panic(fmt.Sprintf("httpapi: encoding frame: %v", err)) // strings and integers only
	}
	return body
}

// frame is one pending push for one lease: a reference to the group's
// shared encoding plus this lease's own counters.
type frame struct {
	shared       []byte // encodeShared's JSON object; read-only
	version      uint64
	coalesced    int
	changedBytes int
}

// writeTo writes the frame as an SSE update event whose data is a
// Notification JSON object: the per-lease fields around the shared bytes,
// with no intermediate copy of the payload. Lease ids are hex, so quoting
// needs no JSON-specific escaping.
func (f frame) writeTo(w io.Writer, leaseID string, mode replication.PushMode) error {
	_, err := fmt.Fprintf(w, "event: update\ndata: "+`{"lease_id":%q,"mode":%q,"coalesced":%d,"changed_bytes":%d,`,
		leaseID, modeToWire(mode), f.coalesced, f.changedBytes)
	if err == nil {
		_, err = w.Write(f.shared[1:]) // the shared object minus its opening brace
	}
	if err == nil {
		_, err = io.WriteString(w, "\n\n")
	}
	return err
}

// leaseMailbox is the Subscriber bridging the fanout workers to one
// lease's HTTP stream. Deliver never blocks: the frame merges into a
// single pending slot and a cap-1 signal wakes the stream handler if it
// is waiting, so a stalled or absent HTTP client costs the fanout
// nothing. Frames that land while the previous one is unread coalesce
// exactly like the manager's own slot — latest version, summed publish
// counts. The handler that takes a frame stamps the lease id it was asked
// for, so the mailbox needs no identity of its own.
type leaseMailbox struct {
	mode replication.PushMode

	mu      sync.Mutex
	pending frame         // empty while shared == nil
	signal  chan struct{} // cap 1: "the slot is non-empty"
	done    chan struct{} // closed when the lease leaves the registry
	closed  bool
}

func newLeaseMailbox(mode replication.PushMode) *leaseMailbox {
	return &leaseMailbox{mode: mode, signal: make(chan struct{}, 1), done: make(chan struct{})}
}

// Deliver implements replication.Subscriber.
func (mb *leaseMailbox) Deliver(u replication.Update) {
	f := frame{shared: u.Encoded(encodeShared), version: u.Version,
		coalesced: max(u.Coalesced, 1), changedBytes: u.ChangedBytes}
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	if p := mb.pending; p.shared != nil {
		f.coalesced += p.coalesced
		f.changedBytes += p.changedBytes
		if p.version > f.version {
			// Out-of-order frame (possible across a renewed delivery race):
			// keep the newer payload, still count the publishes.
			f.shared, f.version = p.shared, p.version
		}
	}
	mb.pending = f
	mb.mu.Unlock()
	select {
	case mb.signal <- struct{}{}:
	default:
	}
}

// take pops the pending frame, if any.
func (mb *leaseMailbox) take() (frame, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	f := mb.pending
	mb.pending = frame{}
	return f, f.shared != nil
}

// close marks the mailbox released and wakes a waiting handler.
func (mb *leaseMailbox) close() {
	mb.mu.Lock()
	if mb.closed {
		mb.mu.Unlock()
		return
	}
	mb.closed = true
	mb.mu.Unlock()
	close(mb.done)
}

// mailbox resolves a lease id to its mailbox.
func (s *Server) mailbox(id string) (*leaseMailbox, bool) {
	s.mbMu.Lock()
	defer s.mbMu.Unlock()
	mb, ok := s.mailboxes[id]
	return mb, ok
}

// releaseMailbox drops and closes the mailbox for a released lease.
func (s *Server) releaseMailbox(id string) {
	s.mbMu.Lock()
	mb := s.mailboxes[id]
	delete(s.mailboxes, id)
	s.mbMu.Unlock()
	if mb != nil {
		mb.close()
	}
}

// minLeaseTTL is the shortest lease granted: a shorter one would expire
// before its grant reached the client.
const minLeaseTTL = time.Second

// leaseTTL normalizes a requested TTL in seconds: 0 or less is the
// default, and the rest is clamped to [minLeaseTTL, DefaultMaxLeaseTTL].
// It clamps before converting: past ~9.2e9 s the product overflows
// time.Duration.
func leaseTTL(seconds float64) time.Duration {
	if !(seconds > 0) {
		return DefaultLeaseTTL
	}
	return max(time.Duration(min(seconds, DefaultMaxLeaseTTL.Seconds())*float64(time.Second)), minLeaseTTL)
}

// leaseInfo snapshots a lease for wire replies.
func (s *Server) leaseInfo(l *replication.Lease, ttl time.Duration) LeaseInfo {
	var current uint64
	if v, err := s.Store.Current(l.Key); err == nil {
		current = v.Num
	}
	return LeaseInfo{
		LeaseID: l.ID, Key: l.Key, ClientID: l.ClientID, Mode: modeToWire(l.Mode),
		TTLSeconds: ttl.Seconds(), CurrentVersion: current,
	}
}

// handleLeases grants subscriptions: POST /leases.
func (s *Server) handleLeases(w http.ResponseWriter, r *http.Request) {
	var req leaseRequest
	if !s.decodeBody(w, r, "lease", &req) {
		return
	}
	if req.Key == "" {
		s.writeError(w, r, http.StatusBadRequest, fmt.Errorf("lease needs key"))
		return
	}
	mode, err := modeFromWire(req.Mode)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	ttl := leaseTTL(req.TTLSeconds)
	mb := newLeaseMailbox(mode)
	l, err := s.Leases.Subscribe(req.Key, req.ClientID, mode, ttl, mb)
	if err != nil {
		s.writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if req.HaveVersion > 0 {
		l.AckVersion(req.HaveVersion)
	}
	s.mbMu.Lock()
	s.mailboxes[l.ID] = mb
	s.mbMu.Unlock()
	// The lease could expire or be swept between Subscribe and the map
	// insert; make sure a released lease never strands a live mailbox.
	if _, ok := s.Leases.LeaseByID(l.ID); !ok {
		s.releaseMailbox(l.ID)
	}
	trace.Annotate(r.Context(), trace.String("lease", l.ID), trace.String("key", req.Key))
	writeJSON(w, http.StatusCreated, s.leaseInfo(l, ttl))
}

// withLease serves a /leases/{id}/... request with h, given the lease and
// its mailbox: the one lookup every such route makes. An unknown id is a
// 404; a lease that has expired but is not yet swept is a 410 Gone
// (re-subscribe, don't retry).
func (s *Server) withLease(h func(http.ResponseWriter, *http.Request, *replication.Lease, *leaseMailbox)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		l, ok := s.Leases.LeaseByID(id)
		mb, hasBox := s.mailbox(id)
		switch {
		case !ok || !hasBox:
			s.writeError(w, r, http.StatusNotFound, fmt.Errorf("%w: %q", replication.ErrLeaseNotFound, id))
		case s.Leases.Expired(l):
			s.writeError(w, r, http.StatusGone, fmt.Errorf("%w: %q", replication.ErrLeaseExpired, id))
		default:
			h(w, r, l, mb)
		}
	}
}

// handleLeaseCancel ends a lease: DELETE /leases/{id}.
func (s *Server) handleLeaseCancel(w http.ResponseWriter, r *http.Request, l *replication.Lease, _ *leaseMailbox) {
	s.Leases.Cancel(l)
	writeJSON(w, http.StatusOK, map[string]string{"status": "cancelled"})
}

// handleLeaseRenew extends a lease: POST /leases/{id}/renew.
func (s *Server) handleLeaseRenew(w http.ResponseWriter, r *http.Request, l *replication.Lease, _ *leaseMailbox) {
	var req renewRequest
	if !s.decodeBody(w, r, "renew", &req) {
		return
	}
	ttl := leaseTTL(req.TTLSeconds)
	if err := s.Leases.Renew(l, ttl); err != nil {
		s.writeError(w, r, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, s.leaseInfo(l, ttl))
}

// handleLeaseAck records the version a subscriber holds: POST
// /leases/{id}/ack.
func (s *Server) handleLeaseAck(w http.ResponseWriter, r *http.Request, l *replication.Lease, _ *leaseMailbox) {
	var req ackRequest
	if !s.decodeBody(w, r, "ack", &req) {
		return
	}
	l.AckVersion(req.Version)
	writeJSON(w, http.StatusOK, map[string]string{"status": "acked"})
}

// handleLeaseStream serves GET /leases/{id}/stream as Server-Sent
// Events: a `lease` event with the grant, then one `update` event per
// coalesced frame, heartbeat comments while idle, and an `end` event
// when the lease leaves the registry; EndLongPolls closes it with no end
// event, as a server that went away would. Each write gets its own
// deadline of two heartbeats in place of the server-wide WriteTimeout,
// which would kill long-lived streams.
func (s *Server) handleLeaseStream(w http.ResponseWriter, r *http.Request, l *replication.Lease, mb *leaseMailbox) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, r, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	rc := http.NewResponseController(w)
	writeBy := func() { _ = rc.SetWriteDeadline(time.Now().Add(2 * s.heartbeat)) }
	writeBy()
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	if err := writeSSE(w, "lease", s.leaseInfo(l, time.Until(l.Expires()))); err != nil {
		return
	}
	flusher.Flush()

	beat := time.NewTicker(s.heartbeat)
	defer beat.Stop()
	for {
		// Drain the slot before sleeping: a frame may have landed between
		// the last write and re-arming the signal.
		if f, ok := mb.take(); ok {
			writeBy()
			if err := f.writeTo(w, l.ID, mb.mode); err != nil {
				return
			}
			flusher.Flush()
			continue
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdown.Done():
			return
		case <-mb.done:
			writeBy()
			_ = writeSSE(w, "end", map[string]string{"lease_id": l.ID})
			flusher.Flush()
			return
		case <-mb.signal:
		case <-beat.C:
			writeBy()
			if _, err := fmt.Fprint(w, ": ping\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE emits one Server-Sent Event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err
}
