package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestSubscribeFailsOnDroppedStream: a lease stream that closes after one
// update frame, with no end frame, is coda-server restarting or going away.
// subscribe handles the frame, then fails with an error that names the
// drop and wraps io.ErrUnexpectedEOF, so the command exits non-zero; it
// still cancels its lease on the way out.
func TestSubscribeFailsOnDroppedStream(t *testing.T) {
	var acked, cancelled atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /store/objects/watched", http.NotFound)
	mux.HandleFunc("POST /leases", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"lease_id":"L1","key":"watched","mode":"notify","ttl_seconds":60}`)
	})
	mux.HandleFunc("GET /leases/L1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: update\ndata: {\"lease_id\":\"L1\",\"key\":\"watched\",\"version\":2,\"mode\":\"notify\",\"coalesced\":1}\n\n")
	})
	mux.HandleFunc("POST /leases/L1/ack", func(w http.ResponseWriter, r *http.Request) {
		acked.Add(1)
		fmt.Fprint(w, `{"status":"acked"}`)
	})
	mux.HandleFunc("DELETE /leases/L1", func(w http.ResponseWriter, r *http.Request) {
		cancelled.Add(1)
		fmt.Fprint(w, `{"status":"cancelled"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	err := runSubscribe(context.Background(), []string{"-server", ts.URL, "-key", "watched", "-retries", "1", "-log-level", "error"})
	if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), "lease stream dropped") {
		t.Fatalf("subscribe over a dropped stream: %v; want an error naming the drop and wrapping io.ErrUnexpectedEOF", err)
	}
	if acked.Load() != 1 || cancelled.Load() != 1 {
		t.Errorf("%d frames acked and %d lease cancels, want 1 of each", acked.Load(), cancelled.Load())
	}
}

// TestSubscribeOutlivesAttemptTimeout: subscribe on a lease stream that
// stays quiet for longer than -attempt-timeout keeps streaming (the stream
// is not an attempt the retry layer times out), then prints the one frame
// a publish sends, acks it once, cancels its lease and returns nil.
func TestSubscribeOutlivesAttemptTimeout(t *testing.T) {
	var streams, acks atomic.Int64
	url, leases := homeServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/stream"):
				streams.Add(1)
			case strings.HasSuffix(r.URL.Path, "/ack"):
				acks.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	printed, runErr := captureStdout(t, func() error {
		done := make(chan error, 1)
		go func() {
			done <- runSubscribe(context.Background(), []string{"-server", url, "-key", "watched",
				"-count", "1", "-attempt-timeout", "200ms", "-retries", "1", "-log-level", "error"})
		}()
		for deadline := time.Now().Add(5 * time.Second); streams.Load() == 0; time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("subscribe never opened its lease stream")
			}
		}
		time.Sleep(600 * time.Millisecond) // quiet for three attempt timeouts
		select {
		case err := <-done:
			t.Fatalf("subscribe returned during the quiet wait: %v", err)
		default:
		}
		if _, err := leases.Publish("watched", []byte("v1")); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			return err
		case <-time.After(5 * time.Second):
			t.Fatal("subscribe did not return after the published frame")
			return nil
		}
	})
	if runErr != nil {
		t.Fatalf("subscribe: %v", runErr)
	}
	if !strings.Contains(printed, `notify "watched" v1 (1 publishes coalesced`) {
		t.Errorf("output %q, want the v1 notify frame", printed)
	}
	if acks.Load() != 1 {
		t.Errorf("%d acks, want 1", acks.Load())
	}
	if n := leases.ActiveLeases("watched"); n != 0 {
		t.Errorf("%d leases still active on the key, want the command's cancelled", n)
	}
}

// TestSubscribeRenewsAtHalfTheGrantedTTL: the server caps a lease's TTL,
// so subscribe renews at half the TTL it was granted, not half the one it
// asked for: a 1 min request granted 0.3 s is renewed twice inside 1 s,
// and the lease line prints the grant.
func TestSubscribeRenewsAtHalfTheGrantedTTL(t *testing.T) {
	var renewals atomic.Int64
	twoRenewed := make(chan struct{})
	var asked atomic.Int64 // seconds
	mux := http.NewServeMux()
	mux.HandleFunc("GET /store/objects/watched", http.NotFound)
	mux.HandleFunc("POST /leases", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			TTLSeconds float64 `json:"ttl_seconds"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		asked.Store(int64(req.TTLSeconds))
		w.WriteHeader(http.StatusCreated)
		fmt.Fprint(w, `{"lease_id":"L1","key":"watched","mode":"notify","ttl_seconds":0.3}`)
	})
	mux.HandleFunc("POST /leases/L1/renew", func(w http.ResponseWriter, r *http.Request) {
		if renewals.Add(1) == 2 {
			close(twoRenewed)
		}
		fmt.Fprint(w, `{"lease_id":"L1","key":"watched","mode":"notify","ttl_seconds":0.3}`)
	})
	// The stream sends its one frame once two renewals are in, or after 1 s.
	mux.HandleFunc("GET /leases/L1/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		select {
		case <-twoRenewed:
		case <-time.After(time.Second):
		case <-r.Context().Done():
			return
		}
		fmt.Fprint(w, "event: update\ndata: {\"lease_id\":\"L1\",\"key\":\"watched\",\"version\":2,\"mode\":\"notify\",\"coalesced\":1}\n\n")
	})
	mux.HandleFunc("POST /leases/L1/ack", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"acked"}`)
	})
	mux.HandleFunc("DELETE /leases/L1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"cancelled"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	printed, err := captureStdout(t, func() error {
		return runSubscribe(context.Background(), []string{"-server", ts.URL, "-key", "watched", "-ttl", "1m",
			"-count", "1", "-retries", "1", "-log-level", "error"})
	})
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if s := asked.Load(); s != 60 {
		t.Errorf("subscribe asked for %d s, want the 60 s of -ttl 1m", s)
	}
	if n := renewals.Load(); n < 2 {
		t.Errorf("%d renewals within 1 s of a 0.3 s grant, want at least 2", n)
	}
	if !strings.Contains(printed, "ttl=300ms") {
		t.Errorf("output %q, want the granted ttl=300ms", printed)
	}
}

// TestSubscribeRefusesNonPositiveTTL: -ttl 0 is refused, with an error
// naming the flag, before any request reaches the server.
func TestSubscribeRefusesNonPositiveTTL(t *testing.T) {
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		http.NotFound(w, r)
	}))
	defer ts.Close()
	err := runSubscribe(context.Background(), []string{"-server", ts.URL, "-key", "watched", "-ttl", "0", "-log-level", "error"})
	if err == nil || !strings.Contains(err.Error(), "-ttl") {
		t.Errorf("subscribe -ttl 0: %v, want an error naming -ttl", err)
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("subscribe -ttl 0 sent %d requests, want none", n)
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed, with fn's error.
func captureStdout(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	err = fn()
	w.Close()
	return <-out, err
}
