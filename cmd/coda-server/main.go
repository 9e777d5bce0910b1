// Command coda-server runs a cloud analytics server node (Figure 1): it
// hosts the Data Analytics Results Repository (Figure 2) and a versioned
// home data store with delta-encoded replies (Section III) over HTTP.
//
// Usage:
//
//	coda-server -addr :8080 -claim-ttl 1m -retain 4
//
// The data tier is pluggable through persistence DSNs (scheme:dir?params):
// -store-backend and -darr-backend each accept mem: (the default),
// log:<dir> (write-ahead segment log, fsync on every write,
// snapshot-then-truncate compaction) or bolt:<dir> (the same log, which
// also compacts itself in the background once it outgrows ?wal=<bytes>).
// A durable -darr-backend is what makes cooperative results survive
// restarts; -persist-compact runs periodic compaction so boots replay
// live state, not full history:
//
//	coda-server -addr :8080 -store-backend log:/var/lib/coda/store \
//	    -darr-backend bolt:/var/lib/coda/darr -persist-compact 5m
//
// Real-time push (Section III's lease-based subscriptions): POST /leases
// grants a lease on an object, GET /leases/{id}/stream serves coalesced
// update frames as Server-Sent Events, and object PUTs fan out through a
// bounded worker pool so a slow subscriber never stalls a writer. Expired leases on idle objects
// are swept every leaseSweep:
//
//	coda-server -addr :8080 -fanout-workers 16 -notify-coalesce 100ms
//
// Observability: structured logs go to stderr (-log-level debug shows
// per-request lines with X-Coda-Request-Id), /metrics serves a
// Prometheus text scrape, /healthz reports uptime, build and the DARR,
// store and lease state, and -debug-addr exposes net/http/pprof plus the
// same scrape on a separate listener:
//
//	coda-server -addr :8080 -log-level debug -log-format json -debug-addr :6060
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"coda/internal/darr"
	"coda/internal/httpapi"
	"coda/internal/obs"
	"coda/internal/replication"
	"coda/internal/store"
)

// leaseSweep is how often expired leases on idle objects are pruned.
const leaseSweep = 30 * time.Second

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		claimTTL = flag.Duration("claim-ttl", time.Minute, "DARR work-claim expiry")
		retain   = flag.Int("retain", 4, "object versions retained for delta bases")

		storeBackend = flag.String("store-backend", "mem:", "object-store persistence DSN: mem:, log:<dir> or bolt:<dir>")

		darrBackend    = flag.String("darr-backend", "mem:", "DARR persistence DSN: mem:, log:<dir> or bolt:<dir>; durable backends replay records and claims at boot")
		persistCompact = flag.Duration("persist-compact", 0, "run backend compaction this often (0 disables; durable backends only)")

		fanoutWorkers  = flag.Int("fanout-workers", 8, "lease fanout worker pool size (0 disables the push serving tier)")
		notifyCoalesce = flag.Duration("notify-coalesce", 50*time.Millisecond, "minimum gap between pushes to one lease; publishes inside the window merge into one frame")

		readTimeout  = flag.Duration("read-timeout", httpapi.DefaultReadTimeout, "per-request read timeout")
		writeTimeout = flag.Duration("write-timeout", httpapi.DefaultWriteTimeout, "per-request write timeout")
		idleTimeout  = flag.Duration("idle-timeout", httpapi.DefaultIdleTimeout, "keep-alive idle timeout")

		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error (debug logs every request)")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		debugAddr = flag.String("debug-addr", "", "optional listener for net/http/pprof, /metrics, /healthz and /debug/traces (e.g. :6060)")
	)
	flag.Parse()

	if err := obs.SetupDefaultLogger(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "coda-server:", err)
		os.Exit(2)
	}
	logger := slog.Default()

	// "mem:" opens no KV, so the repo and store are memory-only and there
	// is nothing to report as recovered.
	repo, err := darr.NewDurableRepo(*darrBackend, nil, *claimTTL)
	if err != nil {
		logger.Error("opening durable DARR", "dsn", *darrBackend, "err", err)
		os.Exit(1)
	}
	if repo.Backend() != "mem" {
		logger.Info("durable DARR recovered",
			"backend", repo.Backend(), "records", repo.Len(), "active_claims", repo.ActiveClaims())
	}
	defer repo.Close()

	st, err := store.OpenDSN(*storeBackend, store.Options{Retain: *retain})
	if err != nil {
		logger.Error("opening object store", "dsn", *storeBackend, "err", err)
		os.Exit(1)
	}
	if st.Backend() != "mem" {
		objects := 0
		st.Each(func(string) bool { objects++; return true })
		logger.Info("object store recovered", "backend", st.Backend(), "objects", objects)
	}
	var hs store.ObjectStore = st
	defer hs.Close()

	if *persistCompact > 0 {
		ticker := time.NewTicker(*persistCompact)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				if err := st.CompactBackend(); err != nil {
					logger.Warn("store compaction failed", "err", err)
				}
				if err := repo.Compact(); err != nil {
					logger.Warn("darr compaction failed", "err", err)
				}
			}
		}()
	}
	api := httpapi.NewServer(repo, hs)
	if *fanoutWorkers > 0 {
		// The push serving tier: SSE lease subscriptions with a
		// bounded fanout pool, per-lease coalescing, and a periodic sweep
		// of expired leases on idle objects.
		leases := replication.NewManagerWith(hs, nil, replication.Config{
			Workers:        *fanoutWorkers,
			CoalesceWindow: *notifyCoalesce,
			SweepInterval:  leaseSweep,
		})
		defer leases.Close()
		api.EnableLeases(leases)
		logger.Info("push serving tier enabled",
			"workers", *fanoutWorkers, "coalesce", *notifyCoalesce, "sweep", leaseSweep)
	}

	if *debugAddr != "" {
		if err := httpapi.ListenDebug(*debugAddr); err != nil {
			logger.Error("starting the debug listener", "err", err)
			os.Exit(1)
		}
	}

	srv := &http.Server{
		Handler: api,
		// The header deadline is stated rather than inherited from
		// ReadTimeout, so it holds if the body's is ever relaxed.
		ReadHeaderTimeout: *readTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// Shutdown waits for running handlers but does not end them: a parked
	// DARR wait or an open lease stream would hold the exit for its whole
	// budget. It also counts a connection that has sent no request yet (a
	// client transport's spare dial) as active until it is 5 s old, so
	// those are closed as it begins.
	srv.RegisterOnShutdown(api.EndLongPolls)
	var quiet quietConns
	srv.ConnState = quiet.track
	srv.RegisterOnShutdown(quiet.close)
	// Bind first, so the line reports the address actually bound (-addr
	// 127.0.0.1:0 lets the kernel pick a free port).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("coda-server exiting", "err", err)
		os.Exit(1)
	}
	logger.Info("coda-server listening",
		"addr", ln.Addr().String(), "claim_ttl", *claimTTL, "retain", *retain)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		logger.Error("coda-server exiting", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		// Graceful stop: drain in-flight requests, then let the deferred
		// Closes flush and release the durable backends.
		logger.Info("coda-server shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
	}
}

// quietConns holds a server's connections that have sent no request yet
// (http.StateNew).
type quietConns struct {
	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// track is the server's ConnState hook.
func (q *quietConns) track(c net.Conn, state http.ConnState) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if state != http.StateNew {
		delete(q.conns, c)
		return
	}
	if q.conns == nil {
		q.conns = map[net.Conn]struct{}{}
	}
	q.conns[c] = struct{}{}
}

// close closes every connection that has sent no request yet.
func (q *quietConns) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for c := range q.conns {
		_ = c.Close()
	}
	clear(q.conns)
}
