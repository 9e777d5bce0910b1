// Command coda-client is an analytics client node (Figure 1). It runs
// Transformer-Estimator-Graph searches over CSV or synthetic data —
// cooperating through a remote DARR when -server is given — and manages
// versioned objects in a remote home data store.
//
// Usage:
//
//	coda-client search -data train.csv -target y -metric rmse -k 10
//	coda-client search -synthetic regression -server http://host:8080 -client alice
//	coda-client search -synthetic timeseries -metric rmse
//	coda-client query  -server http://host:8080 -fingerprint <fp>
//	coda-client put    -server http://host:8080 -key data -file blob.bin
//	coda-client pull   -server http://host:8080 -key data -out blob.bin
//	coda-client serve  -data train.csv -target y -addr :9090
//
// subscribe takes a lease on an object and follows its update stream
// (Section III's push modes: value, delta, or notify), renewing the lease
// at half-life and acknowledging each frame. With -recompute-every or
// -recompute-bytes, a change-detection trigger rides the notification
// stream and re-pulls the object when enough change has accumulated —
// push-driven re-analytics instead of polling:
//
//	coda-client subscribe -server http://host:8080 -key data -mode notify -recompute-every 10
//	coda-client subscribe -server http://host:8080 -key data -mode delta -count 5
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
	"coda/internal/retry"
	"coda/internal/sim"
	"coda/internal/store"
	"coda/internal/tsgraph"
	"coda/internal/webservice"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Interrupts cancel in-flight DARR and object-store traffic via the
	// context threaded through every client call.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "search":
		err = runSearch(ctx, os.Args[2:])
	case "query":
		err = runQuery(ctx, os.Args[2:])
	case "put":
		err = runPut(ctx, os.Args[2:])
	case "pull":
		err = runPull(ctx, os.Args[2:])
	case "subscribe":
		err = runSubscribe(ctx, os.Args[2:])
	case "serve":
		err = runServe(ctx, os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coda-client:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: coda-client <search|query|put|pull|subscribe|serve> [flags]")
}

// logFlags is the observability flag surface shared by every subcommand:
// structured-log level/format, an optional pprof/metrics listener, and
// the tracing knobs (head sampling, slow capture, ring size).
type logFlags struct {
	level       *string
	format      *string
	debugAddr   *string
	traceSample *float64
	traceSlowMS *int
	traceRing   *int
}

func addLogFlags(fs *flag.FlagSet) *logFlags {
	return &logFlags{
		level:       fs.String("log-level", "info", "log level: debug|info|warn|error (debug logs every remote call)"),
		format:      fs.String("log-format", "text", "log format: text|json"),
		debugAddr:   fs.String("debug-addr", "", "optional listener for net/http/pprof, /metrics, /healthz and /debug/traces (e.g. :6061)"),
		traceSample: fs.Float64("trace-sample", 1.0, "fraction of traces kept by head sampling (slow traces are always kept)"),
		traceSlowMS: fs.Int("trace-slow-ms", 500, "always keep traces at least this slow, in milliseconds (0 disables slow capture)"),
		traceRing:   fs.Int("trace-ring", trace.DefaultCapacity, "completed traces retained for /debug/traces"),
	}
}

// setup configures the process logger and tracer and, when requested,
// starts the pprof/metrics debug listener.
func (lf *logFlags) setup() error {
	if err := obs.SetupDefaultLogger(*lf.level, *lf.format); err != nil {
		return err
	}
	trace.SetSampleRate(*lf.traceSample)
	trace.SetSlowThreshold(time.Duration(*lf.traceSlowMS) * time.Millisecond)
	if *lf.traceRing != trace.DefaultCapacity {
		trace.SetDefaultRecorder(trace.NewRecorder(*lf.traceRing))
	}
	if *lf.debugAddr != "" {
		addr := *lf.debugAddr
		go func() {
			slog.Info("debug server listening", "addr", addr,
				"endpoints", "/debug/pprof/ /metrics /healthz /debug/traces")
			if err := http.ListenAndServe(addr, httpapi.NewDebugServer()); err != nil {
				slog.Error("debug server failed", "err", err)
			}
		}()
	}
	return nil
}

// runServe trains the best pipeline for a dataset and exposes it as an AI
// web service (Figure 1's third party): POST {"rows": [[...], ...]} to /score.
func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		dataPath = fs.String("data", "", "CSV file with a header row")
		target   = fs.String("target", "", "target column name in the CSV")
		addr     = fs.String("addr", ":9090", "listen address")
		metric   = fs.String("metric", "rmse", "scoring metric for model selection")
		k        = fs.Int("k", 5, "cross-validation folds")
		seed     = fs.Int64("seed", 1, "search seed")
		server   = fs.String("server", "", "DARR server URL: run the model-selection search cooperatively")
		clientID = fs.String("client", "serve", "client id for DARR claims")
	)
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}
	// As in search: one request id covers the start-up search's DARR calls.
	ctx, _ = obs.EnsureRequestID(ctx)
	var ds *dataset.Dataset
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			return fmt.Errorf("opening data: %w", err)
		}
		defer f.Close()
		ds, err = dataset.ReadCSV(f, *target)
		if err != nil {
			return err
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		var err error
		ds, _, err = dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 3, Noise: 3}, rng)
		if err != nil {
			return err
		}
	}
	scorer, err := metrics.ScorerByName(*metric)
	if err != nil {
		return err
	}
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: *k, Shuffle: true},
		Scorer:   scorer,
		Seed:     *seed,
	}
	if *server != "" {
		hc := ft.client(*server, *clientID)
		hc.Metric = *metric
		hc.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
		defer hc.Close()
		opts.Store = hc
	}
	res, err := core.Search(ctx, regressionGraph(), ds, opts)
	if err != nil {
		return err
	}
	logCooperation(ctx, opts, res)
	if res.Best == nil {
		return fmt.Errorf("no pipeline succeeded on the data")
	}
	fitStart := time.Now()
	best, err := res.FitBest(ctx)
	if err != nil {
		return err
	}
	slog.Info("best pipeline fitted", "request_id", obs.RequestID(ctx),
		"spec", res.Best.Spec, "duration", time.Since(fitStart))
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s (%s=%.5g) on %s\n", res.Best.Spec, *metric, res.Best.Mean, ln.Addr())
	printProfile(res.Profile)
	fmt.Println(`POST {"rows": [[...feature values...], ...]} to /score`)
	srv := scoreServer(pipelineEstimator{best})
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
		// An interrupt is how serve ends: drain in-flight scoring requests.
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		return srv.Shutdown(shCtx)
	}
}

// scoreServer is serve's listener: est at /score on the one httpapi chain
// (request ids, traces, the body cap, per-route metrics, panic recovery,
// /metrics, /healthz and /debug/traces), behind coda-server's default
// timeouts, so a client that never finishes its headers is cut off.
func scoreServer(est core.Estimator) *http.Server {
	api := httpapi.NewServer(nil, nil)
	api.Handle("/score", webservice.Handler(est))
	return &http.Server{
		Handler:           api,
		ReadHeaderTimeout: httpapi.DefaultReadTimeout,
		ReadTimeout:       httpapi.DefaultReadTimeout,
		WriteTimeout:      httpapi.DefaultWriteTimeout,
		IdleTimeout:       httpapi.DefaultIdleTimeout,
	}
}

// logCooperation logs how a cooperative search settled its units: one line
// per search, under the search's request id.
func logCooperation(ctx context.Context, opts core.SearchOptions, res *core.SearchResult) {
	if opts.Store != nil {
		slog.Info("cooperative search finished",
			"request_id", obs.RequestID(ctx), "computed", res.Computed,
			"cache_hits", res.CacheHits, "skipped", res.Skipped, "degraded", res.Degraded)
	}
}

// printProfile summarizes the search's critical-path breakdown on stdout.
func printProfile(p core.SearchProfile) {
	if p.Total <= 0 {
		return
	}
	fmt.Printf("critical path: compute=%s darr_wait=%s store_wait=%s queue=%s other=%s (total %s)\n",
		p.Compute.Round(time.Millisecond), p.DARRWait.Round(time.Millisecond),
		p.StoreWait.Round(time.Millisecond), p.Queue.Round(time.Millisecond),
		p.Other.Round(time.Millisecond), p.Total.Round(time.Millisecond))
}

// pipelineEstimator adapts a fitted Pipeline to core.Estimator for the
// webservice handler (Fit re-fits the whole pipeline; Predict runs the
// transform-then-predict path).
type pipelineEstimator struct {
	p *core.Pipeline
}

func (pe pipelineEstimator) Name() string                         { return "served-pipeline" }
func (pe pipelineEstimator) SetParam(key string, _ float64) error { return fmt.Errorf("no params") }
func (pe pipelineEstimator) Params() map[string]float64           { return nil }
func (pe pipelineEstimator) Clone() core.Estimator                { return pipelineEstimator{pe.p.Clone()} }
func (pe pipelineEstimator) Fit(ds *dataset.Dataset) error        { return pe.p.Fit(ds) }
func (pe pipelineEstimator) Predict(ds *dataset.Dataset) ([]float64, error) {
	return pe.p.Predict(ds)
}

func runSearch(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	var (
		dataPath  = fs.String("data", "", "CSV file with a header row")
		target    = fs.String("target", "", "target column name in the CSV")
		synthetic = fs.String("synthetic", "", "use synthetic data: regression | timeseries")
		metric    = fs.String("metric", "rmse", "scoring metric")
		k         = fs.Int("k", 5, "cross-validation folds")
		server    = fs.String("server", "", "DARR server URL for cooperative search")
		clientID  = fs.String("client", "cli", "client id for DARR claims")
		seed      = fs.Int64("seed", 1, "search seed")
		parallel  = fs.Int("parallelism", 0, "concurrent pipeline evaluations (0 = one per CPU)")
		epochs    = fs.Int("epochs", 20, "network epochs (timeseries graph)")
		top       = fs.Int("top", 5, "pipelines to print")
		cacheMB   = fs.Int("prefix-cache-mb", core.DefaultPrefixCacheMB, "shared-prefix cache capacity in MiB")
		noCache   = fs.Bool("no-prefix-cache", false, "disable the shared-prefix cache (re-fit every transformer prefix per unit, for A/B runs)")
	)
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}

	// One request id covers the whole cooperative search: every DARR call
	// it makes carries this id in X-Coda-Request-Id, so client and server
	// logs correlate end to end.
	ctx, requestID := obs.EnsureRequestID(ctx)

	var (
		ds  *dataset.Dataset
		g   *core.Graph
		err error
	)
	switch {
	case *dataPath != "":
		f, err := os.Open(*dataPath)
		if err != nil {
			return fmt.Errorf("opening data: %w", err)
		}
		defer f.Close()
		ds, err = dataset.ReadCSV(f, *target)
		if err != nil {
			return err
		}
		g = regressionGraph()
	case *synthetic == "regression":
		rng := rand.New(rand.NewSource(*seed))
		ds, _, err = dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 3, Noise: 3}, rng)
		if err != nil {
			return err
		}
		g = regressionGraph()
	case *synthetic == "timeseries":
		rng := rand.New(rand.NewSource(*seed))
		ds, err = sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 2, Regime: sim.RegimeAR}, rng)
		if err != nil {
			return err
		}
		g, err = tsgraph.New(tsgraph.Config{History: 8, Epochs: *epochs, Seed: *seed, Slim: true})
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("pass -data <csv> or -synthetic regression|timeseries")
	}

	scorer, err := metrics.ScorerByName(*metric)
	if err != nil {
		return err
	}
	var splitter crossval.Splitter = crossval.KFold{K: *k, Shuffle: true}
	if *synthetic == "timeseries" {
		n := ds.NumSamples()
		splitter = crossval.SlidingSplit{K: *k, TrainSize: n / 2, TestSize: n / 6, Buffer: 8}
	}
	opts := core.SearchOptions{
		Splitter:           splitter,
		Scorer:             scorer,
		Seed:               *seed,
		Parallelism:        *parallel,
		PrefixCacheMB:      *cacheMB,
		DisablePrefixCache: *noCache,
	}
	if *server != "" {
		hc := ft.client(*server, *clientID)
		hc.Metric = *metric
		hc.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
		defer hc.Close()
		opts.Store = hc
		slog.Info("cooperative search starting",
			"request_id", requestID, "server", *server, "client", *clientID,
			"metric", *metric)
	}

	res, err := core.Search(ctx, g, ds, opts)
	if err != nil {
		return err
	}
	logCooperation(ctx, opts, res)
	fmt.Printf("dataset fingerprint: %s\n", ds.Fingerprint())
	fmt.Printf("units: %d computed, %d from DARR, %d skipped (claimed elsewhere)\n",
		res.Computed, res.CacheHits, res.Skipped)
	if !*noCache {
		p := res.Prefix
		fmt.Printf("prefix cache: %d hits, %d misses, %d evictions (%d prefix fits for %d distinct fold-prefix pairs)\n",
			p.Hits, p.Misses, p.Evictions, p.Fits, p.DistinctPrefixes)
	}
	if res.Degraded > 0 {
		fmt.Printf("degraded: %d units computed locally because the DARR was unreachable\n", res.Degraded)
	}
	printProfile(res.Profile)

	ok := res.Units[:0:0]
	for _, u := range res.Units {
		if u.Err == "" && !u.Skipped {
			ok = append(ok, u)
		}
	}
	sort.Slice(ok, func(a, b int) bool { return scorer.Better(ok[a].Mean, ok[b].Mean) })
	if len(ok) > *top {
		ok = ok[:*top]
	}
	for i, u := range ok {
		src := "computed"
		if u.FromCache {
			src = "darr"
		}
		fmt.Printf("%2d. %s=%.5g  [%s]  %s\n", i+1, *metric, u.Mean, src, u.Spec)
	}
	if res.Best != nil {
		fmt.Printf("best: %s (%s=%.5g)\n", res.Best.Spec, *metric, res.Best.Mean)
	}
	return nil
}

func regressionGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFeatureScalers(
		preprocess.NewMinMaxScaler(),
		preprocess.NewRobustScaler(),
		preprocess.NewStandardScaler(),
		preprocess.NewNoOp(),
	)
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
		[]core.Transformer{preprocess.NewSelectKBest(3)},
		[]core.Transformer{preprocess.NewNoOp()},
	)
	g.AddRegressionModels(
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 30),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
		mlmodels.NewLinearRegression(),
	)
	return g
}

func runQuery(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	server := fs.String("server", "", "DARR server URL")
	fp := fs.String("fingerprint", "", "dataset fingerprint")
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}
	if *server == "" || *fp == "" {
		return fmt.Errorf("query needs -server and -fingerprint")
	}
	recs, err := ft.client(*server, "cli").QueryByDataset(ctx, *fp)
	if err != nil {
		return err
	}
	fmt.Printf("%d records for dataset %s\n", len(recs), *fp)
	for _, r := range recs {
		fmt.Printf("  %s=%.5g by %s: %s\n", r.Metric, r.Score, r.ClientID, r.PipelineSpec)
	}
	return nil
}

func runPut(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("put", flag.ExitOnError)
	server := fs.String("server", "", "store server URL")
	key := fs.String("key", "", "object key")
	file := fs.String("file", "", "file to upload")
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}
	if *server == "" || *key == "" || *file == "" {
		return fmt.Errorf("put needs -server, -key and -file")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	version, err := ft.client(*server, "cli").PutObject(ctx, *key, data)
	if err != nil {
		return err
	}
	fmt.Printf("stored %q version %d (%d bytes)\n", *key, version, len(data))
	return nil
}

func runPull(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pull", flag.ExitOnError)
	server := fs.String("server", "", "store server URL")
	key := fs.String("key", "", "object key")
	out := fs.String("out", "", "output file")
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}
	if *server == "" || *key == "" || *out == "" {
		return fmt.Errorf("pull needs -server, -key and -out")
	}
	rep := store.NewReplica()
	if err := ft.client(*server, "cli").PullObject(ctx, rep, *key); err != nil {
		return err
	}
	data, ok := rep.Data(*key)
	if !ok {
		return fmt.Errorf("pull succeeded but replica is empty")
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("pulled %q version %d (%d bytes, %d on the wire)\n",
		*key, rep.VersionOf(*key), len(data), rep.BytesReceived())
	return nil
}

// faultFlags is the fault-tolerance flag surface shared by every
// subcommand that talks to a remote server.
type faultFlags struct {
	retries        *int
	retryBackoff   *time.Duration
	retryMax       *time.Duration
	attemptTimeout *time.Duration
	breakerFails   *int
	breakerCool    *time.Duration
}

func addFaultFlags(fs *flag.FlagSet) *faultFlags {
	return &faultFlags{
		retries:        fs.Int("retries", retry.DefaultMaxAttempts, "max attempts per request (1 disables retrying)"),
		retryBackoff:   fs.Duration("retry-backoff", retry.DefaultInitialBackoff, "initial retry backoff (grows exponentially with jitter)"),
		retryMax:       fs.Duration("retry-max-backoff", retry.DefaultMaxBackoff, "retry backoff cap"),
		attemptTimeout: fs.Duration("attempt-timeout", httpapi.DefaultPerAttemptTimeout, "per-attempt request timeout"),
		breakerFails:   fs.Int("breaker-failures", httpapi.DefaultBreakerThreshold, "consecutive failed calls that trip the circuit breaker (0 disables it)"),
		breakerCool:    fs.Duration("breaker-cooldown", httpapi.DefaultBreakerCooldown, "wait before a tripped breaker probes the server again"),
	}
}

// client builds an httpapi.Client honoring the parsed flags.
func (f *faultFlags) client(server, clientID string) *httpapi.Client {
	c := httpapi.NewClient(server, clientID)
	c.Retry = retry.Policy{
		MaxAttempts:       *f.retries,
		InitialBackoff:    *f.retryBackoff,
		MaxBackoff:        *f.retryMax,
		PerAttemptTimeout: *f.attemptTimeout,
	}
	if *f.breakerFails > 0 {
		c.Breaker = retry.NewBreaker(*f.breakerFails, *f.breakerCool, nil)
		retry.RegisterBreaker(server, c.Breaker)
	} else {
		c.Breaker = nil
	}
	return c
}
