package main

import (
	"context"
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

// TestSubscribePollOutlivesAttemptTimeout: subscribe -poll against a
// lease that stays quiet for longer than -attempt-timeout keeps waiting
// (the server-side wait is longer than an attempt), then prints the one
// frame a publish sends, acks it once, cancels its lease and returns nil.
func TestSubscribePollOutlivesAttemptTimeout(t *testing.T) {
	var polls, acks atomic.Int64
	url, leases := homeServer(t, func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch {
			case strings.HasSuffix(r.URL.Path, "/poll"):
				polls.Add(1)
			case strings.HasSuffix(r.URL.Path, "/ack"):
				acks.Add(1)
			}
			next.ServeHTTP(w, r)
		})
	})
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()

	done := make(chan error, 1)
	go func() {
		done <- runSubscribe(context.Background(), []string{"-server", url, "-key", "watched", "-poll",
			"-count", "1", "-attempt-timeout", "200ms", "-retries", "1", "-log-level", "error"})
	}()
	for deadline := time.Now().Add(5 * time.Second); polls.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("subscribe never polled its lease")
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
	var runErr error
	select {
	case runErr = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("subscribe did not return after the published frame")
	}
	w.Close()
	os.Stdout = stdout
	printed := <-out

	if runErr != nil {
		t.Fatalf("subscribe -poll: %v", runErr)
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
