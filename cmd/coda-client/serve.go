package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/metrics"
	"coda/internal/obs"
	"coda/internal/replication"
	"coda/internal/store"
	"coda/internal/webservice"
)

// runServe trains the best pipeline for a dataset and exposes it as an AI
// web service (Figure 1's third party): POST {"rows": [[...], ...]} to /score.
// With -key the dataset is a CSV series object on -server's home store,
// searched over the Figure 11 graph. A -recompute-* trigger then keeps the
// model fresh: serve follows the object on a notify lease and, each time
// the trigger fires, delta-pulls the new version, searches it cooperatively
// through -server's DARR and swaps the winner in behind /score.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dataPath   = fs.String("data", "", "CSV file with a header row")
		key        = fs.String("key", "", "search and serve this CSV series object from -server's home store instead of -data")
		target     = fs.String("target", "", "target column name in the CSV")
		addr       = fs.String("addr", ":9090", "listen address")
		metric     = fs.String("metric", "rmse", "scoring metric for model selection")
		k          = fs.Int("k", 5, "cross-validation folds")
		seed       = fs.Int64("seed", 1, "search seed")
		server     = fs.String("server", "", "DARR server URL: run the model-selection search cooperatively")
		clientID   = fs.String("client", "serve", "client id for DARR claims")
		recomputeN = fs.Int("recompute-every", 0, "with -key: re-search after this many pushed updates (0 disables the trigger)")
		recomputeB = fs.Int64("recompute-bytes", 0, "with -key: re-search after this many changed bytes (0 disables the trigger)")
	)
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var trig replication.Trigger
	switch {
	case *recomputeN > 0:
		trig = replication.CountTrigger{N: *recomputeN}
	case *recomputeB > 0:
		trig = replication.BytesTrigger{N: *recomputeB}
	}
	switch {
	case trig != nil && *key == "":
		return fmt.Errorf("serve: -recompute-every and -recompute-bytes re-search an object on the home store: pass -key")
	case *key != "" && (*server == "" || *dataPath != ""):
		return fmt.Errorf("serve: -key reads its object from -server's home store: pass -server and no -data")
	}
	if err := lf.setup(); err != nil {
		return err
	}
	// stop ends the command's work on an interrupt or a failure alike, and
	// starts the exit budget that everything after it runs in.
	ctx, stop := context.WithCancel(ctx)
	defer stop()
	exitCtx, cancelExit := windDown(ctx)
	defer cancelExit()
	// As in search: one request id covers the start-up search's DARR calls.
	ctx, _ = obs.EnsureRequestID(ctx)
	scorer, err := metrics.ScorerByName(*metric)
	if err != nil {
		return err
	}
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: *k, Shuffle: true},
		Scorer:   scorer,
		Seed:     *seed,
	}
	var hc *httpapi.Client
	if *server != "" {
		hc = ft.client(*server, *clientID)
		hc.Metric = *metric
		hc.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
		defer hc.Close()
		opts.Store = hc
	}

	served := &servedPipeline{}
	var (
		res    *core.SearchResult
		series *seriesAnalytics
		l      *lease
	)
	if *key == "" {
		ds, err := regressionData(*dataPath, *target, *seed)
		if err != nil {
			return err
		}
		var best *core.Pipeline
		if res, best, err = searchAndFit(ctx, regressionGraph(), ds, opts); err != nil {
			return err
		}
		served.Store(best)
	} else {
		series = &seriesAnalytics{key: *key, k: *k, opts: opts, c: hc, rep: store.NewReplica(), served: served}
		if err := hc.PullObject(ctx, series.rep, *key); err != nil {
			return fmt.Errorf("serve: pulling %q: %w", *key, err)
		}
		// The lease is taken before the start-up search, so a version
		// published while it runs reaches the trigger.
		if trig != nil {
			series.mon = replication.NewMonitor(trig)
			if l, err = openLease(ctx, hc, series.rep, *key, "notify", time.Minute); err != nil {
				return err
			}
			defer l.close(exitCtx)
		}
		if res, err = series.search(ctx); err != nil {
			return err
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s (%s=%.5g) on %s\n", res.Best.Spec, *metric, res.Best.Mean, ln.Addr())
	printProfile(res.Profile)
	fmt.Println(`POST {"rows": [[...feature values...], ...]} to /score`)
	srv := scoreServer(served, series)
	errCh := make(chan error, 2)
	go func() { errCh <- srv.Serve(ln) }()
	followed := make(chan struct{})
	go func() {
		defer close(followed)
		if l == nil {
			return
		}
		if err := l.follow(ctx, func(n httpapi.Notification) error { return series.observe(ctx, n) }); err != nil {
			errCh <- err
		}
	}()
	// An interrupt is how serve ends. In the first half of the exit
	// budget the in-flight scoring requests drain and the follow loop, and
	// a re-search it runs, see the cancel and return; the deferred lease
	// cancel has the rest.
	select {
	case err = <-errCh:
	case <-ctx.Done():
	}
	stop()
	drainCtx, cancelDrain := context.WithTimeout(exitCtx, exitBudget/2)
	defer cancelDrain()
	if shErr := srv.Shutdown(drainCtx); shErr != nil {
		// A connection still busy, or one that connected and has sent
		// nothing (Shutdown waits 5 s for those), is closed instead.
		slog.Warn("closing the scoring connections still open", "err", shErr)
		srv.Close()
	}
	select {
	case <-followed:
	case <-drainCtx.Done():
		slog.Warn("exiting before the re-search returned")
	}
	return err
}

// searchAndFit runs one search and fits its winner on the whole dataset.
func searchAndFit(ctx context.Context, g *core.Graph, ds *dataset.Dataset, opts core.SearchOptions) (*core.SearchResult, *core.Pipeline, error) {
	res, err := core.Search(ctx, g, ds, opts)
	if err != nil {
		return nil, nil, err
	}
	logCooperation(ctx, opts, res)
	if res.Best == nil {
		return nil, nil, fmt.Errorf("no pipeline succeeded on the data")
	}
	fitStart := time.Now()
	best, err := res.FitBest(ctx)
	if err != nil {
		return nil, nil, err
	}
	slog.Info("best pipeline fitted", "request_id", obs.RequestID(ctx),
		"spec", res.Best.Spec, "duration", time.Since(fitStart))
	return res, best, nil
}

// seriesAnalytics is serve -key's state: the object it follows, its replica,
// the trigger its lease frames feed, and what the last successful search on
// it serves. Only one goroutine at a time searches.
type seriesAnalytics struct {
	key      string
	k        int
	opts     core.SearchOptions
	c        *httpapi.Client
	rep      *store.Replica
	mon      *replication.Monitor
	served   *servedPipeline
	searches int
	status   atomic.Pointer[analyticsStatus]
}

// analyticsStatus is serve's /healthz "analytics" component: the object
// version the served pipeline was searched on, its spec and mean score, and
// how many searches have been served.
type analyticsStatus struct {
	Key      string  `json:"key"`
	Version  uint64  `json:"version"`
	BestSpec string  `json:"best_spec"`
	Score    float64 `json:"score"`
	Searches int     `json:"searches"`
}

// search searches the replica's version of the object over the Figure 11
// graph and serves the winner. On an error, the previous winner stays.
func (a *seriesAnalytics) search(ctx context.Context) (*core.SearchResult, error) {
	data, _ := a.rep.Data(a.key)
	version := a.rep.VersionOf(a.key)
	ds, err := dataset.ReadCSV(bytes.NewReader(data), "")
	if err != nil {
		return nil, fmt.Errorf("%q v%d is not a CSV series: %w", a.key, version, err)
	}
	g, splitter, err := seriesSearch(ds, a.k, a.opts.Seed)
	if err != nil {
		return nil, err
	}
	opts := a.opts
	opts.Splitter = splitter
	res, best, err := searchAndFit(ctx, g, ds, opts)
	if err != nil {
		return nil, fmt.Errorf("searching %q v%d: %w", a.key, version, err)
	}
	a.served.Store(best)
	a.searches++
	a.status.Store(&analyticsStatus{Key: a.key, Version: version, BestSpec: res.Best.Spec, Score: res.Best.Mean, Searches: a.searches})
	return res, nil
}

// observe feeds one lease frame to the trigger. When it fires, the new
// version is delta-pulled and searched under a fresh request id; a version
// that fails to pull or search is logged and the previous winner serves on.
func (a *seriesAnalytics) observe(ctx context.Context, n httpapi.Notification) error {
	a.mon.ObserveUpdate(replication.Update{Notify: true, Coalesced: n.Coalesced, ChangedBytes: n.ChangedBytes})
	if !a.mon.Check() {
		return nil
	}
	a.mon.Reset()
	ctx = obs.WithRequestID(ctx, obs.NewRequestID())
	err := a.c.PullObject(ctx, a.rep, a.key)
	if err == nil {
		_, err = a.search(ctx)
	}
	if err != nil && ctx.Err() == nil {
		slog.Warn("re-search failed, serving the previous pipeline", "key", a.key, "version", a.rep.VersionOf(a.key), "err", err)
	}
	return ctx.Err()
}

// scoreServer is serve's listener: est at /score on the one httpapi chain
// (request ids, traces, the body cap, per-route metrics, panic recovery,
// /metrics, /healthz and /debug/traces), behind coda-server's default
// timeouts, so a client that never finishes its headers is cut off. With a
// series, /healthz carries its "analytics" component.
func scoreServer(est webservice.Predictor, series *seriesAnalytics) *http.Server {
	api := httpapi.NewServer(nil, nil)
	api.Handle("score", "/score", webservice.Handler(est), http.MethodPost)
	if series != nil {
		api.AddHealth("analytics", func() any { return series.status.Load() })
	}
	return &http.Server{
		Handler:           api,
		ReadHeaderTimeout: httpapi.DefaultReadTimeout,
		ReadTimeout:       httpapi.DefaultReadTimeout,
		WriteTimeout:      httpapi.DefaultWriteTimeout,
		IdleTimeout:       httpapi.DefaultIdleTimeout,
	}
}

// servedPipeline is the fitted pipeline serve's /score stands behind. A
// re-search swaps its winner in with one atomic store, so each request is
// answered wholly by the old pipeline or wholly by the new one.
type servedPipeline struct {
	atomic.Pointer[core.Pipeline]
}

func (s *servedPipeline) Predict(ds *dataset.Dataset) ([]float64, error) {
	return s.Load().Predict(ds)
}
