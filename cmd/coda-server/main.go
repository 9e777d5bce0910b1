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
//	    -darr-backend bolt:/var/lib/coda/darr -persist-compact 5m -store-shards 32
//
// Real-time push (Section III's lease-based subscriptions): POST /leases
// grants a lease on an object, GET /leases/{id}/stream serves coalesced
// update frames as Server-Sent Events (GET /leases/{id}/poll long-polls
// instead), and object PUTs fan out through a bounded worker pool so a
// slow subscriber never stalls a writer:
//
//	coda-server -addr :8080 -fanout-workers 16 -notify-coalesce 100ms -lease-sweep 30s
//
// Observability: structured logs go to stderr (-log-level debug shows
// per-request lines with X-Coda-Request-Id), /metrics serves a
// Prometheus text scrape, /healthz reports uptime/build/breaker state,
// and -debug-addr exposes net/http/pprof plus the same scrape on a
// separate listener:
//
//	coda-server -addr :8080 -log-level debug -log-format json -debug-addr :6060
//
// For resilience drills against real clients, -chaos injects faults into
// a fraction of requests (dropped connections, 500s, delays) so the
// client-side retry/backoff/circuit-breaker stack can be exercised
// end-to-end:
//
//	coda-server -addr :8080 -chaos 0.3 -chaos-seed 7
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
	"syscall"
	"time"

	// Linked for its metric registrations only: the search-unit latency
	// histogram and outcome counters appear in this server's /metrics
	// schema from boot, so dashboards see the full coda metric set even
	// before any in-process search runs.
	_ "coda/internal/core"

	"coda/internal/darr"
	"coda/internal/faultinject"
	"coda/internal/httpapi"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/replication"
	"coda/internal/store"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		claimTTL = flag.Duration("claim-ttl", time.Minute, "DARR work-claim expiry")
		retain   = flag.Int("retain", 4, "object versions retained for delta bases")
		block    = flag.Int("block", 64, "delta block size in bytes")
		fullFrac = flag.Float64("full-fraction", 0.5, "send delta only when smaller than this fraction of the full object")
		batchMax = flag.Int("batch-max-keys", httpapi.DefaultMaxBatchKeys, "max keys/records per batched DARR request")

		storeBackend = flag.String("store-backend", "mem:", "object-store persistence DSN: mem:, log:<dir> or bolt:<dir>")
		storeShards  = flag.Int("store-shards", 0, "lock shards in the object store (0 = default 16)")

		darrBackend    = flag.String("darr-backend", "mem:", "DARR persistence DSN: mem:, log:<dir> or bolt:<dir>; durable backends replay records and claims at boot")
		persistCompact = flag.Duration("persist-compact", 0, "run backend compaction this often (0 disables; durable backends only)")

		fanoutWorkers  = flag.Int("fanout-workers", 8, "lease fanout worker pool size (0 disables the push serving tier)")
		notifyCoalesce = flag.Duration("notify-coalesce", 50*time.Millisecond, "minimum gap between pushes to one lease; publishes inside the window merge into one frame")
		leaseSweep     = flag.Duration("lease-sweep", 30*time.Second, "how often expired leases on idle objects are pruned")
		leaseMaxTTL    = flag.Duration("lease-max-ttl", time.Hour, "ceiling on requested lease durations")

		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "per-request read timeout")
		writeTimeout = flag.Duration("write-timeout", 30*time.Second, "per-request write timeout")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive idle timeout")

		logLevel  = flag.String("log-level", "info", "log level: debug|info|warn|error (debug logs every request)")
		logFormat = flag.String("log-format", "text", "log format: text|json")
		debugAddr = flag.String("debug-addr", "", "optional listener for net/http/pprof, /metrics and /healthz (e.g. :6060)")

		traceSample = flag.Float64("trace-sample", 1.0, "fraction of traces kept by head sampling (slow traces are always kept)")
		traceSlowMS = flag.Int("trace-slow-ms", 500, "always keep traces at least this slow, in milliseconds (0 disables slow capture)")
		traceRing   = flag.Int("trace-ring", trace.DefaultCapacity, "completed traces retained for /debug/traces")

		chaos      = flag.Float64("chaos", 0, "fraction of requests to fault-inject (0 disables; split evenly between drops and 500s)")
		chaosDelay = flag.Duration("chaos-delay", 0, "also delay this long on a chaos-sized fraction of requests")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the deterministic chaos pattern")
	)
	flag.Parse()

	if err := obs.SetupDefaultLogger(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "coda-server:", err)
		os.Exit(2)
	}
	logger := slog.Default()

	trace.SetSampleRate(*traceSample)
	trace.SetSlowThreshold(time.Duration(*traceSlowMS) * time.Millisecond)
	if *traceRing != trace.DefaultCapacity {
		trace.SetDefaultRecorder(trace.NewRecorder(*traceRing))
	}

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

	storeOpts := store.Options{Retain: *retain, BlockSize: *block, FullFraction: *fullFrac, Shards: *storeShards}
	st, err := store.OpenDSN(*storeBackend, storeOpts)
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
	api.MaxBatchKeys = *batchMax
	if *fanoutWorkers > 0 {
		// The push serving tier: SSE/long-poll lease subscriptions with a
		// bounded fanout pool, per-lease coalescing, and a periodic sweep
		// of expired leases on idle objects.
		leases := replication.NewManagerWith(hs, nil, replication.Config{
			Workers:        *fanoutWorkers,
			CoalesceWindow: *notifyCoalesce,
			SweepInterval:  *leaseSweep,
		})
		defer leases.Close()
		api.MaxLeaseTTL = *leaseMaxTTL
		api.EnableLeases(leases)
		logger.Info("push serving tier enabled",
			"workers", *fanoutWorkers, "coalesce", *notifyCoalesce, "sweep", *leaseSweep)
	}
	var handler http.Handler = api

	if *chaos > 0 {
		cfg := faultinject.Config{
			Seed:          *chaosSeed,
			DropFraction:  *chaos / 2,
			ErrorFraction: *chaos / 2,
			Delay:         *chaosDelay,
		}
		if *chaosDelay > 0 {
			cfg.DelayFraction = *chaos
		}
		handler = faultinject.NewHandler(handler, cfg)
		logger.Warn("CHAOS MODE: injecting faults",
			"fraction", *chaos, "seed", *chaosSeed, "delay", *chaosDelay)
	}

	if *debugAddr != "" {
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr,
				"endpoints", "/debug/pprof/ /metrics /healthz /debug/traces")
			dmux := obs.DebugMux()
			dmux.Handle("/debug/traces", trace.Handler())
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				logger.Error("debug server failed", "err", err)
			}
		}()
	}

	srv := &http.Server{
		Handler: handler,
		// The header deadline is stated rather than inherited from
		// ReadTimeout, so it holds if the body's is ever relaxed.
		ReadHeaderTimeout: *readTimeout,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
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
