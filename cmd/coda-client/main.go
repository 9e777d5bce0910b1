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
// at half the TTL the server granted and acknowledging each frame:
//
//	coda-client subscribe -server http://host:8080 -key data -mode delta -count 5
//
// serve -key searches a CSV series object on the home store instead of a
// file. With -recompute-every or -recompute-bytes, serve re-searches each
// version its change-detection trigger fires on, cooperatively through the
// DARR, and serves the new winner — push-driven re-analytics:
//
//	coda-client serve -server http://host:8080 -key sensors -recompute-bytes 65536
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
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
	"coda/internal/preprocess"
	"coda/internal/retry"
	"coda/internal/sim"
	"coda/internal/store"
	"coda/internal/tsgraph"
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
// structured-log level/format and an optional pprof/metrics listener.
type logFlags struct {
	level     *string
	format    *string
	debugAddr *string
}

func addLogFlags(fs *flag.FlagSet) *logFlags {
	return &logFlags{
		level:     fs.String("log-level", "info", "log level: debug|info|warn|error (debug logs every remote call)"),
		format:    fs.String("log-format", "text", "log format: text|json"),
		debugAddr: fs.String("debug-addr", "", "optional listener for net/http/pprof, /metrics, /healthz and /debug/traces (e.g. :6061)"),
	}
}

// setup configures the process logger and, when requested, starts the
// pprof/metrics debug listener; a debug address that cannot be bound is an
// error.
func (lf *logFlags) setup() error {
	if err := obs.SetupDefaultLogger(*lf.level, *lf.format); err != nil {
		return err
	}
	if *lf.debugAddr != "" {
		return httpapi.ListenDebug(*lf.debugAddr)
	}
	return nil
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
		top       = fs.Int("top", 5, "pipelines to print")
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
		ds       *dataset.Dataset
		g        *core.Graph
		splitter crossval.Splitter = crossval.KFold{K: *k, Shuffle: true}
		err      error
	)
	switch {
	case *dataPath != "" || *synthetic == "regression":
		if ds, err = regressionData(*dataPath, *target, *seed); err != nil {
			return err
		}
		g = regressionGraph()
	case *synthetic == "timeseries":
		rng := rand.New(rand.NewSource(*seed))
		ds, err = sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 2, Regime: sim.RegimeAR}, rng)
		if err != nil {
			return err
		}
		g, splitter, err = seriesSearch(ds, *k, *seed)
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
	opts := core.SearchOptions{
		Splitter:    splitter,
		Scorer:      scorer,
		Seed:        *seed,
		Parallelism: *parallel,
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
	fmt.Printf("dataset fingerprint: %s\n", res.Fingerprint)
	fmt.Printf("units: %d computed, %d from DARR, %d skipped (claimed elsewhere)\n",
		res.Computed, res.CacheHits, res.Skipped)
	p := res.Prefix
	fmt.Printf("prefix cache: %d hits, %d misses (%d prefix fits for %d distinct fold-prefix pairs)\n",
		p.Hits, p.Misses, p.Fits, p.DistinctPrefixes)
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

// seriesEpochs is the network epochs of a series search.
const seriesEpochs = 20

// seriesSearch is the graph and splitter a time series is searched with,
// by search -synthetic timeseries and by serve -key: the slim Figure 11
// graph and K sliding windows.
func seriesSearch(ds *dataset.Dataset, k int, seed int64) (*core.Graph, crossval.Splitter, error) {
	g, err := tsgraph.New(tsgraph.Config{History: 8, Epochs: seriesEpochs, Seed: seed, Slim: true})
	n := ds.NumSamples()
	return g, crossval.SlidingSplit{K: k, TrainSize: n / 2, TestSize: n / 6, Buffer: 8}, err
}

// regressionData reads a CSV file with a header row, or draws a synthetic
// regression set when path is empty.
func regressionData(path, target string, seed int64) (*dataset.Dataset, error) {
	if path == "" {
		ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 300, Features: 6, Informative: 3, Noise: 3},
			rand.New(rand.NewSource(seed)))
		return ds, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("opening data: %w", err)
	}
	defer f.Close()
	return dataset.ReadCSV(f, target)
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
// subcommand that talks to a remote server. Retries back off on retry's
// fixed schedule.
type faultFlags struct {
	retries        *int
	attemptTimeout *time.Duration
}

func addFaultFlags(fs *flag.FlagSet) *faultFlags {
	return &faultFlags{
		retries:        fs.Int("retries", retry.DefaultMaxAttempts, "max attempts per request (1 disables retrying)"),
		attemptTimeout: fs.Duration("attempt-timeout", httpapi.DefaultPerAttemptTimeout, "per-attempt request timeout"),
	}
}

// client builds an httpapi.Client honoring the parsed flags.
func (f *faultFlags) client(server, clientID string) *httpapi.Client {
	c := httpapi.NewClient(server, clientID)
	c.Retry = retry.Policy{MaxAttempts: *f.retries, PerAttemptTimeout: *f.attemptTimeout}
	return c
}
