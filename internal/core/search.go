package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"time"

	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// Search telemetry: how long each evaluation unit takes to compute
// locally, and how units were satisfied — the scoreboard for the paper's
// cooperative-reuse claim. Unit latency is labeled by outcome so failed
// and degraded units stay visible in the histogram instead of vanishing
// from it.
var (
	mUnitSecondsOK  = obs.GetHistogram(`coda_search_unit_seconds{outcome="ok"}`, nil)
	mUnitSecondsErr = obs.GetHistogram(`coda_search_unit_seconds{outcome="error"}`, nil)
	mUnitsComputed  = obs.GetCounter(`coda_search_units_total{outcome="computed"}`)
	mUnitsCached    = obs.GetCounter(`coda_search_units_total{outcome="cache_hit"}`)
	mUnitsSkipped   = obs.GetCounter(`coda_search_units_total{outcome="skipped"}`)
	mUnitsFailed    = obs.GetCounter(`coda_search_units_total{outcome="error"}`)
	mUnitsDegraded  = obs.GetCounter("coda_search_degraded_units_total")
)

// Critical-path telemetry: where searches spend their wall time, split
// by the component that owned each instant (trace.ComputeProfile). The
// aggregate view of the per-search SearchResult.Profile.
var mCritPath = map[string]*obs.Histogram{
	trace.CompCompute:   obs.GetHistogram(`coda_search_critical_path_seconds{component="compute"}`, nil),
	trace.CompDARRWait:  obs.GetHistogram(`coda_search_critical_path_seconds{component="darr_wait"}`, nil),
	trace.CompStoreWait: obs.GetHistogram(`coda_search_critical_path_seconds{component="store_wait"}`, nil),
	trace.CompQueue:     obs.GetHistogram(`coda_search_critical_path_seconds{component="queue"}`, nil),
	trace.CompOther:     obs.GetHistogram(`coda_search_critical_path_seconds{component="other"}`, nil),
}

// ResultStore is the cooperation contract the search engine uses to avoid
// redundant computations across clients (Section III, Figure 2): the
// batched DARR protocol. The DARR clients implement it; a nil store means
// every unit is computed locally.
//
// Search resolves every unit's cache state in one bulk lookup, claims the
// misses a window at a time beside its workers (claimWindow), publishes
// each unit it computes — a store may coalesce those (Flusher) — releases
// a claim it cannot publish, and waits on the units a peer holds (Waiter,
// or a re-check every recheckInterval). Every method takes the search's
// context so a cancelled Search cancels in-flight DARR traffic.
// Implementations may fail transiently (a remote DARR over a WAN); Search
// treats any error as "store unavailable" for the units the call covered
// and degrades them to local computation rather than aborting — except a
// failed Wait, after which it re-checks on its timer.
type ResultStore interface {
	// LookupBatch resolves many keys at once; the result holds entries
	// only for keys with published scores.
	LookupBatch(ctx context.Context, keys []string) (map[string]float64, error)
	// ClaimBatch attempts to reserve every key for this client and
	// reports the per-key grant decisions; false means a peer holds the
	// key or has published it.
	ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error)
	// Publish stores a finished result with its explanation.
	Publish(ctx context.Context, key string, score float64, explanation string) error
	// Release drops this client's claim on key so a claimed-but-failed
	// unit becomes immediately re-claimable by peers instead of blocking
	// them until the claim TTL expires.
	Release(ctx context.Context, key string) error
}

// BatchResultStore is a ResultStore that also answers one key at a time.
// Search never calls Lookup or Claim.
//
// Deprecated: use ResultStore.
type BatchResultStore interface {
	ResultStore
	Lookup(ctx context.Context, key string) (score float64, ok bool, err error)
	Claim(ctx context.Context, key string) (bool, error)
}

// Flusher is implemented by stores that buffer Publishes (the batched
// HTTP client's async publish queue). Search flushes on exit so every
// queued record reaches the repository before results are reported.
type Flusher interface {
	Flush(ctx context.Context) error
}

// Waiter is implemented by stores that can tell when a peer settles a key
// (the in-process DARR client, the HTTP client). Search waits on the keys a
// peer still holds once it has nothing else to do.
type Waiter interface {
	// Wait returns when any of keys is published, released or past its
	// claim's expiry, or with ctx's error when ctx ends first. It may also
	// return nil early: Search claims again either way. Any other error
	// costs the search one recheckInterval instead.
	Wait(ctx context.Context, keys []string) error
}

// SearchOptions configures model validation and selection over a graph
// (Section IV-B; Listing 2's set_cross_validation / set_accuracy).
type SearchOptions struct {
	// Splitter is the cross-validation strategy (required).
	Splitter crossval.Splitter
	// Scorer is the agreed performance measure (required).
	Scorer metrics.Scorer
	// ParamGrid maps "node__param" keys to candidate values; keys whose
	// node is absent from a path are ignored for that path. A key that is
	// not of that form, or whose node is on no path, fails the search.
	ParamGrid map[string][]float64
	// Parallelism bounds concurrent pipeline evaluations. Zero means one
	// worker per CPU (runtime.GOMAXPROCS(0)); negative means 1.
	Parallelism int
	// DisablePrefixCache turns off the shared-prefix computation cache:
	// every unit then re-fits its full transformer chain per fold, by the
	// same per-node step with no memo around it. It is the reference the
	// cached path is tested and benchmarked against; results are
	// bit-identical either way.
	DisablePrefixCache bool
	// Seed drives fold shuffling, shared across clients so cooperating
	// searches agree on the evaluation (part of the DARR key).
	Seed int64
	// Store enables cooperative deduplication via the DARR.
	Store ResultStore
	// SkipClaimed is ignored: a search with a Store waits for the units a
	// peer holds.
	//
	// Deprecated: ignored.
	SkipClaimed bool
}

// UnitResult is the outcome of evaluating one (path, parameter set) unit.
type UnitResult struct {
	// Index is this unit's position in SearchResult.Units. It maps the
	// winner back to its pipeline even when duplicate graph paths
	// produce identical specs and parameter assignments.
	Index     int
	Spec      string    // pipeline spec with parameters applied
	Scores    []float64 // per-fold scores
	Mean      float64
	Err       string // non-empty when the pipeline failed on this data
	FromCache bool   // true when the result came from the ResultStore
	Skipped   bool   // true when ctx ended while a peer still held the unit
	// Degraded is true when the ResultStore failed for this unit and the
	// search fell back to purely local computation (no cache, no claim,
	// no publish) — the wide-area fault-tolerance path.
	Degraded bool
}

// SearchProfile attributes one search's wall time to the component that
// owned each instant on the critical path: local compute (fold fits and
// scoring), DARR round trips, object-store traffic, waiting for a worker
// slot, and everything else (scheduling, bookkeeping). When spans
// overlap — a fold fitting while another unit waits on a claim — the
// instant counts as compute: communication only matters to the critical
// path when nothing is computing. The five components sum exactly to
// Total.
type SearchProfile struct {
	Total     time.Duration
	Compute   time.Duration
	DARRWait  time.Duration
	StoreWait time.Duration
	Queue     time.Duration
	Other     time.Duration
}

// SearchResult is the outcome of Search.
type SearchResult struct {
	Units []UnitResult
	// Best points at the best successful unit (nil if all failed). FitBest
	// fits its pipeline on the full dataset.
	Best *UnitResult
	// Computed / CacheHits / Skipped count how units were satisfied.
	Computed, CacheHits, Skipped int
	// Degraded counts units computed locally because the ResultStore was
	// failing (they are also included in Computed).
	Degraded int
	// Prefix reports how the shared-prefix computation cache behaved
	// (zero-valued when DisablePrefixCache was set).
	Prefix PrefixCacheStats
	// Profile is the critical-path breakdown of the search's wall time
	// (zero-valued when tracing is disabled).
	Profile SearchProfile
	// Fingerprint is the dataset's fingerprint the unit keys were made
	// from: what a DARR query for the search's results names.
	Fingerprint string

	// plan and ds are what FitBest rebuilds and fits the winner from.
	plan *plan
	ds   *dataset.Dataset
}

// FitBest builds the winning unit's pipeline and fits it on the dataset the
// search ran on, under a compute-tagged search.refit span. Search ends at
// selection, so a caller that deploys the winner pays for this fit and one
// that only reads the table does not. Every call returns a freshly fitted
// pipeline. Best.Index, not Best.Spec, picks the unit: duplicate graph
// paths can share a spec.
func (r *SearchResult) FitBest(ctx context.Context) (*Pipeline, error) {
	if r.Best == nil {
		return nil, errors.New("core: no successful unit to fit")
	}
	_, sp := trace.Start(ctx, "search.refit", trace.String("spec", r.Best.Spec))
	sp.SetComponent(trace.CompCompute)
	defer sp.End()
	p, err := r.plan.build(r.Best.Index)
	if err == nil {
		err = p.Fit(r.ds)
	}
	if err != nil {
		return nil, fmt.Errorf("core: fitting best pipeline %s: %w", r.Best.Spec, err)
	}
	return p, nil
}

// Search evaluates every pipeline in the graph under every applicable
// parameter-grid assignment with the configured cross-validation strategy,
// and returns per-unit scores and the best unit. It fits nothing on the full
// dataset: SearchResult.FitBest does, when the caller wants the model.
// Individual pipeline failures are recorded, not fatal — the point of a TEG
// is to try many options, some of which may not suit the data.
//
// With a Store, Search returns once every unit is settled — a hit,
// computed or failed — waiting for the units a peer holds. If ctx ends
// during that wait, those units are Skipped and the result is returned as
// it stands; a ctx that ends while units compute fails the search.
func Search(ctx context.Context, g *Graph, ds *dataset.Dataset, opts SearchOptions) (*SearchResult, error) {
	paths, err := g.finalPaths()
	if err != nil {
		return nil, err
	}
	if opts.Splitter == nil {
		return nil, fmt.Errorf("core: SearchOptions.Splitter is required")
	}
	if opts.Scorer.Fn == nil {
		return nil, fmt.Errorf("core: SearchOptions.Scorer is required")
	}
	if opts.Parallelism == 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Parallelism < 1 {
		opts.Parallelism = 1
	}
	// The root span covers everything from unit planning to the final
	// publish flush; its trace is what /debug/traces shows and what the
	// critical-path profile is computed over.
	ctx, searchSpan := trace.Start(ctx, "search")
	defer searchSpan.End()

	fp := ds.Fingerprint()
	evalSpec := evalSpecOf(opts)
	pl, err := planUnits(g, paths, opts.ParamGrid, fp, evalSpec)
	if err != nil {
		return nil, err
	}
	n := len(pl.keys)

	// The fold plan: every computed unit shares one materialized
	// train/test pair per split. The prefix plan: the prefix cache, sized
	// to the units still unsettled. The splits are drawn, the pairs built
	// and the cache planned when the first unit is handed to a worker, so
	// a search the store settles entirely makes none of them.
	var folds []foldData
	var cache *prefixCache
	defer func() { cache.release() }()

	var wg sync.WaitGroup
	win := newClaimWindow(ctx, opts, pl, shapeOf(ds), wg.Wait)

	if searchSpan != nil {
		searchSpan.SetAttr(trace.Int("units", n), trace.Int("parallelism", opts.Parallelism))
	}

	results := make([]UnitResult, n)
	sem := make(chan struct{}, opts.Parallelism)
	for ctx.Err() == nil || win.gaveUp {
		h, ok := win.next(ctx)
		if !ok {
			break
		}
		u := h.unit
		if h.plan == planHit || h.plan == planSkipped {
			// Settled by the store: nothing to run, so no worker.
			results[u] = settledUnit(ctx, pl, u, h)
			cache.settle(u)
			continue
		}
		if folds == nil {
			splits, err := opts.Splitter.Splits(ds.NumSamples(), rand.New(rand.NewSource(opts.Seed)))
			if err != nil {
				// No worker has started yet, so every claim held is the
				// unit in hand's or one the window has not handed out.
				if h.plan == planGranted {
					releaseClaim(ctx, opts, pl.keys[u], true)
					mClaimsHeld.Add(-1)
				}
				win.abandon(ctx)
				return nil, fmt.Errorf("core: computing folds: %w", err)
			}
			folds = materializeFolds(ds, splits)
			if !opts.DisablePrefixCache {
				cache = newPrefixCache(pl, results, len(folds))
			}
			if searchSpan != nil {
				searchSpan.SetAttr(trace.Int("folds", len(folds)))
			}
		}
		wg.Add(1)
		// Time spent waiting for a worker slot is queue time on the
		// critical path — visible saturation, not invisible stalling.
		// (Attrs are set behind the nil check so the disabled tracer
		// costs zero allocations in this loop.)
		_, qsp := trace.Start(ctx, "search.queue")
		if qsp != nil {
			qsp.SetComponent(trace.CompQueue)
			qsp.SetAttr(trace.Int("unit", u))
		}
		sem <- struct{}{}
		qsp.End()
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[u] = evaluateUnit(ctx, pl, u, h, folds, cache, evalSpec, opts)
			cache.settle(u) // before the slot frees, so the next unit finds the entries dropped
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil && !win.gaveUp {
		win.abandon(ctx)
		return nil, fmt.Errorf("core: search cancelled: %w", err)
	}

	res := &SearchResult{Units: results, Fingerprint: fp, plan: pl, ds: ds}
	if cache != nil {
		res.Prefix = cache.stats(len(folds))
	}
	failed := 0
	for i := range results {
		u := &results[i]
		switch {
		case u.Skipped:
			res.Skipped++
			mUnitsSkipped.Inc()
		case u.FromCache:
			res.CacheHits++
			mUnitsCached.Inc()
		case u.Err == "":
			res.Computed++
			mUnitsComputed.Inc()
		default:
			failed++
			mUnitsFailed.Inc()
		}
		if u.Degraded {
			res.Degraded++
			mUnitsDegraded.Inc()
		}
		if u.Err != "" || u.Skipped {
			continue
		}
		// A non-finite mean (e.g. a peer published NaN) compares as
		// better-than-nothing and would become an unbeatable Best.
		if math.IsNaN(u.Mean) || math.IsInf(u.Mean, 0) {
			continue
		}
		if res.Best == nil || opts.Scorer.Better(u.Mean, res.Best.Mean) {
			res.Best = u
		}
	}
	flushPublishes(ctx, opts)
	// Behind Enabled: the arguments would be boxed even with Debug off.
	if slog.Default().Enabled(ctx, slog.LevelDebug) {
		slog.Debug("search complete",
			"request_id", obs.RequestID(ctx), "dataset_fp", fp, "units", n,
			"parallelism", opts.Parallelism,
			"computed", res.Computed, "cache_hits", res.CacheHits,
			"skipped", res.Skipped, "failed", failed, "degraded", res.Degraded,
			"prefix_hits", res.Prefix.Hits, "prefix_misses", res.Prefix.Misses)
	}
	if res.Degraded > 0 {
		slog.Warn("search degraded: result store unavailable for some units",
			"request_id", obs.RequestID(ctx), "degraded", res.Degraded, "units", len(results))
	}
	if searchSpan != nil {
		prof := searchSpan.Profile()
		res.Profile = SearchProfile{
			Total:     prof.Total,
			Compute:   prof.Component(trace.CompCompute),
			DARRWait:  prof.Component(trace.CompDARRWait),
			StoreWait: prof.Component(trace.CompStoreWait),
			Queue:     prof.Component(trace.CompQueue),
			Other:     prof.Component(trace.CompOther),
		}
		if prof.Total > 0 {
			for comp, h := range mCritPath {
				h.Observe(prof.Component(comp).Seconds())
			}
			slog.Debug("search critical path",
				"request_id", obs.RequestID(ctx), "trace_id", searchSpan.TraceID().String(),
				"total", res.Profile.Total, "compute", res.Profile.Compute,
				"darr_wait", res.Profile.DARRWait, "store_wait", res.Profile.StoreWait,
				"queue", res.Profile.Queue, "other", res.Profile.Other)
		}
	}
	return res, nil
}

// UnitKey builds the canonical DARR key for one evaluation unit. Clients
// that agree on dataset fingerprint, pipeline spec (with parameters) and
// evaluation spec share results.
func UnitKey(datasetFP, pipelineSpec, evalSpec string) string {
	return datasetFP + "|" + pipelineSpec + "|" + evalSpec
}

// numerics names the arithmetic a score was computed under. It is part of
// every eval spec, so a DARR filled by a build with other numerics returns
// misses, never scores this build would not reproduce bit for bit. 3 is CART
// trees grown on presorted columns, whose sums over tied rows run in row
// order; 2 was the matrix.Sigmoid/Tanh activations; the libm ones before
// them wrote no tag.
const numerics = 3

// evalSpecOf is the evaluation part of every unit key: the fold plan, the
// metric, the seed and the numerics.
func evalSpecOf(opts SearchOptions) string {
	return opts.Splitter.Spec() + "|" + opts.Scorer.Name + "|seed=" + strconv.FormatInt(opts.Seed, 10) + "|numerics=" + strconv.Itoa(numerics)
}

// flushPublishes drains a buffering store's publish queue (Flusher), so
// every queued record reaches the repository; a failure is logged, not
// fatal.
func flushPublishes(ctx context.Context, opts SearchOptions) {
	f, ok := opts.Store.(Flusher)
	if !ok {
		return
	}
	fctx, fsp := trace.Start(ctx, "search.flush")
	fsp.SetComponent(trace.CompDARRWait)
	if err := f.Flush(fctx); err != nil {
		fsp.SetAttr(trace.String("error", err.Error()))
		slog.Warn("search publish flush failed",
			"request_id", obs.RequestID(ctx), "err", err)
	}
	fsp.End()
}

// releaseClaim frees a held work claim on the claimed-but-unpublished
// exit paths (pipeline failure, non-finite score, cancellation, publish
// failure) so peers can re-claim the key immediately instead of waiting
// out the TTL. Best-effort on a detached context: the store may be the
// thing that failed, and a cancelled search must still free its claims.
func releaseClaim(ctx context.Context, opts SearchOptions, key string, held bool) {
	if held {
		_ = opts.Store.Release(context.WithoutCancel(ctx), key)
	}
}

// settledUnit is the result of a unit the store settled on the dispatcher —
// a published score or a peer's claim — with its unit span when tracing.
func settledUnit(ctx context.Context, pl *plan, u int, h handoff) UnitResult {
	out := UnitResult{Index: u, Spec: pl.spec(u)}
	if h.plan == planHit {
		out.Mean, out.FromCache = h.score, true
	} else {
		out.Skipped = true
	}
	if _, usp := trace.Start(ctx, "search.unit"); usp != nil {
		usp.SetAttr(trace.Int("unit", u), trace.String("spec", out.Spec),
			trace.String("outcome", unitOutcome(&out)))
		usp.End()
	}
	return out
}

// evaluateUnit computes a unit a worker was handed: locally, under a claim
// it then publishes or releases, or degraded past a failing store.
func evaluateUnit(ctx context.Context, pl *plan, u int, h handoff, folds []foldData, cache *prefixCache, evalSpec string, opts SearchOptions) (out UnitResult) {
	out = UnitResult{Index: u, Spec: pl.spec(u), Degraded: h.plan == planDegraded}
	key := pl.keys[u]

	// The unit span is structural (no component): per-fold children carry
	// compute, and the publish round trip carries its own wait — tagging
	// the whole unit as compute would mask it.
	ctx, usp := trace.Start(ctx, "search.unit")
	if usp != nil {
		usp.SetAttr(trace.Int("unit", u), trace.String("spec", out.Spec))
		defer func() {
			usp.SetAttr(trace.String("outcome", unitOutcome(&out)))
			usp.End()
		}()
	}

	// claimHeld: this client holds the key's claim and must publish or
	// release it.
	claimHeld := h.plan == planGranted
	if claimHeld {
		defer mClaimsHeld.Add(-1)
	}

	// Every locally evaluated unit is timed — failed and degraded units
	// land in the error-labeled series instead of vanishing from the
	// latency histogram.
	start := time.Now()
	scores, evalErr := computeUnitScores(ctx, pl, u, folds, cache, opts)
	if evalErr != nil {
		mUnitSecondsErr.ObserveSince(start)
		out.Err = evalErr.Error()
		releaseClaim(ctx, opts, key, claimHeld)
		return out
	}
	out.Scores = scores
	mean := math.NaN()
	if len(scores) > 0 {
		sum := 0.0
		for _, s := range scores {
			sum += s
		}
		mean = sum / float64(len(scores))
	}
	if math.IsNaN(mean) || math.IsInf(mean, 0) {
		// A misbehaving scorer or an empty split set must record a
		// failure, not poison best-unit selection or the shared DARR
		// with an unbeatable non-finite "score".
		mUnitSecondsErr.ObserveSince(start)
		out.Err = fmt.Sprintf("non-finite mean score %g over %d folds", mean, len(scores))
		releaseClaim(ctx, opts, key, claimHeld)
		return out
	}
	out.Mean = mean
	mUnitSecondsOK.ObserveSince(start)

	if opts.Store != nil && !out.Degraded {
		explanation := fmt.Sprintf("pipeline=%s cv=%s metric=%s folds=%d", out.Spec, evalSpec, opts.Scorer.Name, len(scores))
		// Best-effort publish: a store outage must not fail the search,
		// but the unit is marked degraded because peers won't see it.
		if err := opts.Store.Publish(ctx, key, out.Mean, explanation); err != nil {
			out.Degraded = true
			releaseClaim(ctx, opts, key, claimHeld)
		}
	}
	return out
}

// computeUnitScores builds the unit's pipeline and runs it over every
// materialized fold. With a prefix cache, each level of the unit's
// transformer prefix is fetched from it (computed and cached when missing)
// by the id the plan gave it; without one every level is computed in
// place. Both run the same per-node step on the same data, so scores are
// bit-identical — the cache only removes repetition.
func computeUnitScores(ctx context.Context, pl *plan, u int, folds []foldData, cache *prefixCache, opts SearchOptions) ([]float64, error) {
	p, err := pl.build(u)
	if err != nil {
		return nil, err
	}
	var ids []int
	if cache != nil {
		ids = cache.ids[u]
	}
	scores := make([]float64, 0, len(folds))
	est := p.Nodes[len(p.Nodes)-1].Estimator.Clone()
	for fi, fd := range folds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		score, err := scoreFold(ctx, p, est, fi, fd, cache, ids, opts)
		if err != nil {
			return nil, err
		}
		scores = append(scores, score)
	}
	return scores, nil
}

// scoreFold fits and scores a unit's pipeline p on one fold, under a
// compute-tagged span recording how many prefix levels the cache served
// (prefix_hits) and how many this span had to fit (prefix_misses). It walks
// the unit's transformer nodes once, each level the per-node step applied to
// the level above — through the cache's memo when there is one — and then
// fits est, the unit's one clone of the estimator, on the result (a Fit
// discards the fold before's). p's own components are never fitted: they
// are the template every fold clones.
func scoreFold(ctx context.Context, p *Pipeline, est Estimator, fi int, fd foldData, cache *prefixCache, ids []int, opts SearchOptions) (float64, error) {
	_, fsp := trace.Start(ctx, "search.fold_fit")
	if fsp != nil {
		fsp.SetComponent(trace.CompCompute)
		fsp.SetAttr(trace.Int("fold", fi))
	}
	defer fsp.End()

	train, test := fd.train, fd.test
	hits, misses := 0, 0
	if fsp != nil && cache != nil {
		defer func() {
			fsp.SetAttr(trace.Int("prefix_hits", hits), trace.Int("prefix_misses", misses))
		}()
	}
	for d, node := range p.transformerNodes() {
		step := func(train, test *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset, error) {
			return node.clone().fitTransform(train, test)
		}
		var err error
		if cache == nil {
			train, test, err = step(train, test)
		} else {
			var served bool
			train, test, served, err = cache.getOrCompute(ctx, fi, ids[d], train, test, step)
			if served {
				hits++
			} else {
				misses++
			}
		}
		if err != nil {
			return 0, err
		}
	}

	if err := est.Fit(train); err != nil {
		return 0, fmt.Errorf("core: fitting estimator %q: %w", p.Nodes[len(p.Nodes)-1].Name, err)
	}
	yhat, err := est.Predict(test)
	if err != nil {
		return 0, err
	}
	return opts.Scorer.Fn(test.DenormY(test.Y), test.DenormY(yhat))
}

// unitOutcome names how a unit was satisfied, for the unit span's
// outcome attribute.
func unitOutcome(u *UnitResult) string {
	switch {
	case u.Skipped:
		return "skipped"
	case u.FromCache:
		return "cache_hit"
	case u.Err != "":
		return "error"
	default:
		return "computed"
	}
}
