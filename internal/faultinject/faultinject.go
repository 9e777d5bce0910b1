// Package faultinject simulates the unreliable wide-area network between
// Figure 1's client nodes and cloud servers: an http.RoundTripper wrapper
// that drops, delays, or answers 500 to a configurable fraction of
// requests, driven deterministically from a seed so failing runs replay
// exactly.
//
// Tests wrap a client's transport with 30% loss and assert that the
// retry layer still completes cooperative searches and replication with
// correct results.
package faultinject

import (
	"context"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Config selects the faults to inject. Fractions are probabilities in
// [0, 1] evaluated per request, in order: drop, then error, then delay.
type Config struct {
	// Seed drives the fault pattern; the same seed and request order
	// reproduce the same faults.
	Seed int64
	// DropFraction of requests never reach the server: the caller sees a
	// connection reset.
	DropFraction float64
	// ErrorFraction of requests are answered with a synthetic 500 without
	// reaching the server.
	ErrorFraction float64
	// DelayFraction of requests are held for Delay before being forwarded.
	DelayFraction float64
	// Delay is the hold applied to delayed requests (default 10ms).
	Delay time.Duration
}

// Counts reports what a Transport has done so far.
type Counts struct {
	Total, Dropped, Errored, Delayed int
}

type verdict int

const (
	pass verdict = iota
	drop
	fail
	delay
)

func (t *Transport) decide() verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts.Total++
	u := t.rng.Float64()
	switch {
	case u < t.cfg.DropFraction:
		t.counts.Dropped++
		return drop
	case u < t.cfg.DropFraction+t.cfg.ErrorFraction:
		t.counts.Errored++
		return fail
	case u < t.cfg.DropFraction+t.cfg.ErrorFraction+t.cfg.DelayFraction:
		t.counts.Delayed++
		return delay
	default:
		return pass
	}
}

// errReset mimics what the OS reports when the peer resets the
// connection; retry.Retryable classifies it as transient.
func errReset() error {
	return &net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}
}

// Transport is a fault-injecting http.RoundTripper wrapper for the
// client side of the WAN: a seeded coin decides each request's fault.
type Transport struct {
	base http.RoundTripper
	cfg  Config

	mu     sync.Mutex
	rng    *rand.Rand
	counts Counts
}

// NewTransport wraps base (nil means http.DefaultTransport).
func NewTransport(base http.RoundTripper, cfg Config) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 10 * time.Millisecond
	}
	return &Transport{base: base, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts returns a snapshot of the injected-fault counters.
func (t *Transport) Counts() Counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	switch t.decide() {
	case drop:
		drainBody(req)
		return nil, errReset()
	case fail:
		drainBody(req)
		return synthetic500(req), nil
	case delay:
		if err := holdFor(req.Context(), t.cfg.Delay); err != nil {
			drainBody(req)
			return nil, err
		}
	}
	return t.base.RoundTrip(req)
}

func drainBody(req *http.Request) {
	if req.Body != nil {
		_, _ = io.Copy(io.Discard, req.Body)
		_ = req.Body.Close()
	}
}

func holdFor(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

func synthetic500(req *http.Request) *http.Response {
	body := `{"error":"faultinject: injected server error"}`
	return &http.Response{
		Status:        "500 Internal Server Error",
		StatusCode:    http.StatusInternalServerError,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        http.Header{"Content-Type": []string{"application/json"}},
		Body:          io.NopCloser(strings.NewReader(body)),
		ContentLength: int64(len(body)),
		Request:       req,
	}
}
