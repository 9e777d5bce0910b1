package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
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
