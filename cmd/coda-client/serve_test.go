package main

import (
	"context"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/httpapi"
	"coda/internal/replication"
	"coda/internal/sim"
	"coda/internal/store"
)

// homeServer is an in-process coda-server — a DARR, a home store and the
// lease tier behind the httpapi chain — with gate in front of it, and the
// lease manager to inspect.
func homeServer(t *testing.T, gate func(next http.Handler) http.Handler) (string, *replication.Manager) {
	t.Helper()
	hs := store.NewHomeStore(store.Options{})
	m := replication.NewManagerWith(hs, nil, replication.Config{Workers: 2})
	t.Cleanup(m.Close)
	api := httpapi.NewServer(darr.NewRepo(nil, time.Minute), hs)
	api.EnableLeases(m)
	ts := httptest.NewServer(gate(api))
	t.Cleanup(ts.Close)
	return ts.URL, m
}

// seriesCSV is a two-variable series of rows steps as CSV, header first.
func seriesCSV(t *testing.T, rows int) string {
	t.Helper()
	ds, err := sim.GenerateSeries(sim.SeriesSpec{Steps: rows, Vars: 2, Regime: sim.RegimeAR}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := ds.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// freeAddr is a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// inFollowLoop reports whether any goroutine is in serve's follow loop or
// a re-search it started.
func inFollowLoop() bool {
	buf := make([]byte, 1<<20)
	stacks := string(buf[:runtime.Stack(buf, true)])
	return strings.Contains(stacks, "main.(*lease).follow") || strings.Contains(stacks, "main.(*seriesAnalytics)")
}

// TestServeExitsWithinBudget: once interrupted, serve -key is gone inside
// exitBudget — its listener drained, its follow loop and any re-search it
// started ended, its lease cancelled — whatever holds it: a scoring client
// that connected and sent nothing, a server that sits on the lease cancel,
// or a re-search in the middle of its fold fits.
func TestServeExitsWithinBudget(t *testing.T) {
	series := seriesCSV(t, 2000)
	v1 := strings.Join(strings.SplitAfter(series, "\n")[:121], "") // the header and 120 rows
	for _, tc := range []struct {
		name       string
		holdCancel bool // the server holds DELETE /leases/{id} until the caller gives up
		research   bool // interrupt while a re-search computes
		idleConn   bool // a scoring client connects and sends nothing
	}{
		{name: "idle connection", idleConn: true},
		{name: "held lease cancel", holdCancel: true},
		{name: "re-search", research: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var (
				mu       sync.Mutex
				v2Put    bool
				claimed  = make(chan struct{})
				claimOne sync.Once
			)
			url, leases := homeServer(t, func(next http.Handler) http.Handler {
				return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					if tc.holdCancel && r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/leases/") {
						<-r.Context().Done()
						return
					}
					next.ServeHTTP(w, r)
					mu.Lock()
					after := v2Put
					mu.Unlock()
					if after && r.URL.Path == "/darr/batch/claims" {
						claimOne.Do(func() { close(claimed) })
					}
				})
			})
			writer := httpapi.NewClient(url, "writer")
			if _, err := writer.PutObject(context.Background(), "series", []byte(v1)); err != nil {
				t.Fatal(err)
			}

			addr := freeAddr(t)
			ctx, interrupt := context.WithCancel(context.Background())
			defer interrupt()
			exited := make(chan error, 1)
			go func() {
				exited <- runServe(ctx, []string{"-addr", addr, "-server", url, "-key", "series",
					"-recompute-bytes", "1", "-k", "2", "-client", "exit-test", "-log-level", "error"})
			}()
			// serve listens once its start-up search is done.
			var conn net.Conn
			for deadline := time.Now().Add(time.Minute); conn == nil; {
				c, err := net.Dial("tcp", addr)
				switch {
				case err == nil:
					conn = c
				case time.Now().After(deadline):
					t.Fatalf("serve is not listening on %s after a minute: %v", addr, err)
				default:
					select {
					case err := <-exited:
						t.Fatalf("serve exited before listening: %v", err)
					case <-time.After(20 * time.Millisecond):
					}
				}
			}
			defer conn.Close()
			if !tc.idleConn {
				conn.Close()
			}
			if tc.research {
				mu.Lock()
				v2Put = true
				mu.Unlock()
				if _, err := writer.PutObject(context.Background(), "series", []byte(series)); err != nil {
					t.Fatal(err)
				}
				select {
				case <-claimed:
				case <-time.After(time.Minute):
					t.Fatal("serve took no claims on the new version")
				}
				time.Sleep(50 * time.Millisecond) // into the fold fits
			}

			began := time.Now()
			interrupt()
			var err error
			select {
			case err = <-exited:
			case <-time.After(exitBudget + 5*time.Second):
				t.Fatalf("serve still running %v after its interrupt", exitBudget+5*time.Second)
			}
			took := time.Since(began)
			if err != nil {
				t.Errorf("serve after its interrupt: %v, want a clean exit", err)
			}
			if took > exitBudget+500*time.Millisecond {
				t.Errorf("serve took %v to exit, want at most its %v budget", took, exitBudget)
			}
			// Waiting for the follow loop is bounded too: only a serve that
			// exited inside its budget must have seen it end.
			if took < exitBudget && inFollowLoop() {
				t.Error("serve returned with its follow loop or a re-search still running")
			}
			if !tc.holdCancel && leases.ActiveLeases("series") != 0 {
				t.Error("serve exited without cancelling its lease")
			}
		})
	}
}
