package core

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/matrix"
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

// ResultStore is the cooperation hook the search engine uses to avoid
// redundant computations across clients (Section III, Figure 2). The DARR
// client implements it; a nil store means every unit is computed locally.
//
// Every method takes the search's context so a cancelled Search cancels
// in-flight DARR traffic. Implementations may fail transiently (a remote
// DARR over a WAN); Search treats any error as "store unavailable for
// this unit" and degrades to local computation rather than aborting.
type ResultStore interface {
	// Lookup returns a previously published mean score for the key.
	Lookup(ctx context.Context, key string) (score float64, ok bool, err error)
	// Claim atomically reserves the key for this client; false means
	// another client is already computing it.
	Claim(ctx context.Context, key string) (bool, error)
	// Publish stores a finished result with its explanation.
	Publish(ctx context.Context, key string, score float64, explanation string) error
}

// BatchResultStore extends ResultStore with bulk operations. A
// cooperative search over N units costs up to 3N sequential round trips
// on the per-unit protocol (Lookup, Claim, Publish each); with a
// batch-capable store Search resolves every unit's cache state in one
// bulk lookup, claims the misses a window at a time beside its workers
// (claimWindow), and lets the store coalesce Publishes. Search uses these
// methods whenever the configured Store implements them and falls back to
// the per-unit protocol otherwise.
type BatchResultStore interface {
	ResultStore
	// LookupBatch resolves many keys at once; the result holds entries
	// only for keys with published scores.
	LookupBatch(ctx context.Context, keys []string) (map[string]float64, error)
	// ClaimBatch attempts to reserve every key for this client and
	// reports the per-key grant decisions.
	ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error)
	// Release drops this client's claim on key so a claimed-but-failed
	// unit becomes immediately re-claimable by peers instead of blocking
	// them until the claim TTL expires.
	Release(ctx context.Context, key string) error
}

// ClaimReleaser is the optional Release hook Search uses (via type
// assertion) on claimed-but-unpublished exit paths — unit failure,
// non-finite scores, cancellation. Plain ResultStore implementations
// without it keep working; their claims simply age out by TTL.
type ClaimReleaser interface {
	Release(ctx context.Context, key string) error
}

// Flusher is implemented by stores that buffer Publishes (the batched
// HTTP client's async publish queue). Search flushes on exit so every
// queued record reaches the repository before results are reported.
type Flusher interface {
	Flush(ctx context.Context) error
}

// SearchOptions configures model validation and selection over a graph
// (Section IV-B; Listing 2's set_cross_validation / set_accuracy).
type SearchOptions struct {
	// Splitter is the cross-validation strategy (required).
	Splitter crossval.Splitter
	// Scorer is the agreed performance measure (required).
	Scorer metrics.Scorer
	// ParamGrid maps "node__param" keys to candidate values; keys whose
	// node is absent from a path are ignored for that path.
	ParamGrid map[string][]float64
	// Parallelism bounds concurrent pipeline evaluations. Zero means one
	// worker per CPU (runtime.GOMAXPROCS(0)); negative means 1.
	//
	// Evaluation workers compose with the matrix kernel worker budget
	// (matrix.SetMaxWorkers): kernels acquire extra workers from a global
	// non-blocking semaphore and fall back to serial when none are free,
	// so Parallelism×kernel parallelism never oversubscribes the machine —
	// at high Parallelism the search-level workers soak up the budget and
	// kernels run serially; at Parallelism 1 a large matmul fans out.
	Parallelism int
	// DisablePrefixCache turns off the shared-prefix computation cache:
	// every unit then re-fits its full transformer chain per fold, by the
	// same per-node step with no memo around it. Mainly for A/B
	// measurement; results are bit-identical either way.
	DisablePrefixCache bool
	// PrefixCacheMB caps the prefix cache's estimated memory in MiB
	// (0 = DefaultPrefixCacheMB). Least-recently-used fitted prefixes are
	// evicted past the cap and transparently refitted on demand.
	PrefixCacheMB int
	// Seed drives fold shuffling, shared across clients so cooperating
	// searches agree on the evaluation (part of the DARR key).
	Seed int64
	// Store enables cooperative deduplication via the DARR.
	Store ResultStore
	// SkipClaimed, with a Store, skips units another client has claimed
	// instead of computing them redundantly.
	SkipClaimed bool
	// Logger receives structured search telemetry (completion summary at
	// debug, degradation warnings). Nil uses slog.Default().
	Logger *slog.Logger
}

// UnitResult is the outcome of evaluating one (path, parameter set) unit.
type UnitResult struct {
	// Index is this unit's position in SearchResult.Units. It maps the
	// winner back to its pipeline even when duplicate graph paths
	// produce identical specs and parameter assignments.
	Index     int
	Spec      string             // pipeline spec with parameters applied
	Params    map[string]float64 // grid assignment used
	Scores    []float64          // per-fold scores
	Mean      float64
	Err       string // non-empty when the pipeline failed on this data
	FromCache bool   // true when the result came from the ResultStore
	Skipped   bool   // true when another client had claimed the unit
	// Degraded is true when the ResultStore failed for this unit and the
	// search fell back to purely local computation (no cache, no claim,
	// no publish) — the wide-area fault-tolerance path.
	Degraded bool
}

// SearchProfile attributes one search's wall time to the component that
// owned each instant on the critical path: local compute (fold fits,
// refit), DARR round trips, object-store traffic, waiting for a worker
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
	// Best points at the best successful unit (nil if all failed).
	Best *UnitResult
	// BestPipeline is the winning pipeline refitted on the full dataset.
	BestPipeline *Pipeline
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
}

// searchUnit is one pipeline x parameter-assignment work item.
type searchUnit struct {
	index    int
	pipeline *Pipeline
	params   map[string]float64
	spec     string // pipeline.Spec(), set by Search
	key      string // the unit's DARR key
}

// Search evaluates every pipeline in the graph under every applicable
// parameter-grid assignment with the configured cross-validation strategy,
// and returns per-unit scores plus the best pipeline refitted on all data.
// Individual pipeline failures are recorded, not fatal — the point of a TEG
// is to try many options, some of which may not suit the data.
func Search(ctx context.Context, g *Graph, ds *dataset.Dataset, opts SearchOptions) (*SearchResult, error) {
	if err := g.Finalize(); err != nil {
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
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	// The root span covers everything from fold materialization to the
	// final refit; its trace is what /debug/traces shows and what the
	// critical-path profile is computed over.
	ctx, searchSpan := trace.Start(ctx, "search")
	defer searchSpan.End()

	splits, err := opts.Splitter.Splits(ds.NumSamples(), rand.New(rand.NewSource(opts.Seed)))
	if err != nil {
		return nil, fmt.Errorf("core: computing folds: %w", err)
	}

	units, err := expandUnits(g, opts.ParamGrid)
	if err != nil {
		return nil, err
	}

	// The fold plan: every unit shares one materialized train/test pair
	// per split instead of re-subsetting the full dataset per unit x fold.
	var cache *prefixCache
	if !opts.DisablePrefixCache {
		cache = newPrefixCache(int64(opts.PrefixCacheMB) << 20)
		defer cache.release()
	}
	folds := materializeFolds(ds, splits, cache)

	fp := ds.Fingerprint()
	evalSpec := evalSpecOf(opts)

	for i := range units {
		units[i].spec = units[i].pipeline.Spec()
		units[i].key = UnitKey(fp, units[i].spec, evalSpec)
	}
	var wg sync.WaitGroup
	win := newClaimWindow(ctx, opts, units, wg.Wait)

	searchSpan.SetAttr(trace.Int("units", len(units)), trace.Int("folds", len(folds)),
		trace.Int("parallelism", opts.Parallelism))

	results := make([]UnitResult, len(units))
	sem := make(chan struct{}, opts.Parallelism)
	for ctx.Err() == nil {
		h, ok := win.next(ctx)
		if !ok {
			break
		}
		u := units[h.unit]
		wg.Add(1)
		// Time spent waiting for a worker slot is queue time on the
		// critical path — visible saturation, not invisible stalling.
		// (Attrs are set behind the nil check so the disabled tracer
		// costs zero allocations in this loop.)
		_, qsp := trace.Start(ctx, "search.queue")
		if qsp != nil {
			qsp.SetComponent(trace.CompQueue)
			qsp.SetAttr(trace.Int("unit", u.index))
		}
		sem <- struct{}{}
		qsp.End()
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[u.index] = evaluateUnit(ctx, u, h, folds, cache, evalSpec, opts)
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		win.abandon(ctx)
		return nil, fmt.Errorf("core: search cancelled: %w", err)
	}

	res := &SearchResult{Units: results}
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
	opts.Logger.Debug("search complete",
		"request_id", obs.RequestID(ctx), "dataset_fp", fp, "units", len(results),
		"parallelism", opts.Parallelism, "kernel_workers", matrix.Parallelism(),
		"computed", res.Computed, "cache_hits", res.CacheHits,
		"skipped", res.Skipped, "failed", failed, "degraded", res.Degraded,
		"prefix_hits", res.Prefix.Hits, "prefix_misses", res.Prefix.Misses,
		"prefix_evictions", res.Prefix.Evictions)
	if res.Degraded > 0 {
		opts.Logger.Warn("search degraded: result store unavailable for some units",
			"request_id", obs.RequestID(ctx), "degraded", res.Degraded, "units", len(results))
	}
	if res.Best != nil {
		// Each UnitResult carries its own unit index: a spec lookup here
		// could silently pick (and refit) the wrong pipeline when
		// duplicate graph paths share a spec.
		refit := units[res.Best.Index].pipeline.Clone()
		_, rsp := trace.Start(ctx, "search.refit", trace.String("spec", res.Best.Spec))
		rsp.SetComponent(trace.CompCompute)
		err := refit.Fit(ds)
		rsp.End()
		if err != nil {
			return nil, fmt.Errorf("core: refitting best pipeline %s: %w", res.Best.Spec, err)
		}
		res.BestPipeline = refit
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
			opts.Logger.Debug("search critical path",
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
// misses, never scores this build would not reproduce bit for bit. 2 is the
// matrix.Sigmoid/Tanh activations; the libm ones before them wrote no tag.
const numerics = 2

// evalSpecOf is the evaluation part of every unit key: the fold plan, the
// metric, the seed and the numerics.
func evalSpecOf(opts SearchOptions) string {
	return fmt.Sprintf("%s|%s|seed=%d|numerics=%d", opts.Splitter.Spec(), opts.Scorer.Name, opts.Seed, numerics)
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
		opts.Logger.Warn("search publish flush failed",
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
	if !held {
		return
	}
	if r, ok := opts.Store.(ClaimReleaser); ok {
		_ = r.Release(context.WithoutCancel(ctx), key)
	}
}

// resolvePerUnit is the original sequential protocol: one Lookup and one
// Claim round trip for this unit.
func resolvePerUnit(ctx context.Context, out *UnitResult, key string, opts SearchOptions) (done, claimHeld bool) {
	score, ok, err := opts.Store.Lookup(ctx, key)
	switch {
	case err != nil:
		// The store is failing (WAN fault, circuit open, outage):
		// degrade this unit to local-only computation instead of
		// erroring out mid-search.
		out.Degraded = true
		return false, false
	case ok:
		out.Mean = score
		out.FromCache = true
		return true, false
	}
	claimed, err := opts.Store.Claim(ctx, key)
	switch {
	case err != nil:
		out.Degraded = true
		return false, false
	case !claimed && opts.SkipClaimed:
		out.Skipped = true
		return true, false
	case claimed:
		mClaimsHeld.Add(1)
	}
	return false, claimed
}

func evaluateUnit(ctx context.Context, u searchUnit, h handoff, folds []foldData, cache *prefixCache, evalSpec string, opts SearchOptions) (out UnitResult) {
	out = UnitResult{Index: u.index, Spec: u.spec, Params: u.params}

	// The unit span is structural (no component): per-fold children carry
	// compute, and any per-unit store round trips carry their own waits —
	// tagging the whole unit as compute would mask them.
	ctx, usp := trace.Start(ctx, "search.unit")
	if usp != nil {
		usp.SetAttr(trace.Int("unit", u.index), trace.String("spec", out.Spec))
		defer func() {
			usp.SetAttr(trace.String("outcome", unitOutcome(&out)))
			usp.End()
		}()
	}

	// claimHeld: this client holds the key's claim and must publish or
	// release it.
	claimHeld := h.plan == planGranted
	switch h.plan {
	case planHit:
		out.Mean, out.FromCache = h.score, true
		return out
	case planSkipped:
		out.Skipped = true
		return out
	case planDegraded:
		out.Degraded = true
	case planPerUnit:
		if opts.Store != nil {
			var done bool
			if done, claimHeld = resolvePerUnit(ctx, &out, u.key, opts); done {
				return out
			}
		}
	}
	if claimHeld {
		defer mClaimsHeld.Add(-1)
	}

	// Every locally evaluated unit is timed — failed and degraded units
	// land in the error-labeled series instead of vanishing from the
	// latency histogram.
	start := time.Now()
	scores, evalErr := computeUnitScores(ctx, u, folds, cache, opts)
	if evalErr != nil {
		mUnitSecondsErr.ObserveSince(start)
		out.Err = evalErr.Error()
		releaseClaim(ctx, opts, u.key, claimHeld)
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
		releaseClaim(ctx, opts, u.key, claimHeld)
		return out
	}
	out.Mean = mean
	mUnitSecondsOK.ObserveSince(start)

	if opts.Store != nil && !out.Degraded {
		explanation := fmt.Sprintf("pipeline=%s cv=%s metric=%s folds=%d", out.Spec, evalSpec, opts.Scorer.Name, len(scores))
		// Best-effort publish: a store outage must not fail the search,
		// but the unit is marked degraded because peers won't see it.
		if err := opts.Store.Publish(ctx, u.key, out.Mean, explanation); err != nil {
			out.Degraded = true
			releaseClaim(ctx, opts, u.key, claimHeld)
		}
	}
	return out
}

// computeUnitScores runs the unit's pipeline over every materialized
// fold. With a prefix cache, each level of the unit's transformer prefix is
// fetched from it (computed and cached when missing); without one every
// level is computed in place. Both run the same per-node step on the same
// data, so scores are bit-identical — the cache only removes repetition.
func computeUnitScores(ctx context.Context, u searchUnit, folds []foldData, cache *prefixCache, opts SearchOptions) ([]float64, error) {
	var prefixes []string
	if cache != nil {
		prefixes = u.pipeline.PrefixSpecs()
	}
	scores := make([]float64, 0, len(folds))
	for fi, fd := range folds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		score, err := scoreFold(ctx, u, fi, fd, cache, prefixes, opts)
		if err != nil {
			return nil, err
		}
		scores = append(scores, score)
	}
	return scores, nil
}

// scoreFold fits and scores the unit's pipeline on one fold, under a
// compute-tagged span recording how many prefix levels the cache served
// (prefix_hits) and how many this span had to fit (prefix_misses). It walks
// the unit's transformer nodes once, each level the per-node step applied to
// the level above — through the cache's memo when there is one — and then
// fits a clone of the estimator on the result. The unit's own components
// are never fitted: they stay the template the winner's refit clones.
func scoreFold(ctx context.Context, u searchUnit, fi int, fd foldData, cache *prefixCache, prefixes []string, opts SearchOptions) (float64, error) {
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
	for d, node := range u.pipeline.transformerNodes() {
		step := func(train, test *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset, error) {
			return node.clone().fitTransform(train, test)
		}
		var err error
		if cache == nil {
			train, test, err = step(train, test)
		} else {
			var served bool
			train, test, served, err = cache.getOrCompute(ctx, prefixKey{fold: fi, spec: prefixes[d]}, train, test, step)
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

	last := u.pipeline.Nodes[len(u.pipeline.Nodes)-1]
	est := last.Estimator.Clone()
	if err := est.Fit(train); err != nil {
		return 0, fmt.Errorf("core: fitting estimator %q: %w", last.Name, err)
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

// expandUnits enumerates (path x applicable grid assignment) units, applying
// grid values via SetParam on fresh pipeline clones.
func expandUnits(g *Graph, grid map[string][]float64) ([]searchUnit, error) {
	paths := g.Paths()
	keys := make([]string, 0, len(grid))
	for k := range grid {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var units []searchUnit
	for _, path := range paths {
		base, err := NewPipeline(path)
		if err != nil {
			return nil, err
		}
		// Grid keys that name a node on this path.
		var applicable []string
		for _, k := range keys {
			node, _, ok := strings.Cut(k, "__")
			if ok && base.HasNode(node) {
				applicable = append(applicable, k)
			}
		}
		assignments := cartesian(applicable, grid)
		for _, assign := range assignments {
			p := base.Clone()
			for k, v := range assign {
				if err := p.SetParam(k, v); err != nil {
					return nil, fmt.Errorf("core: applying grid %s=%s: %w", k, strconv.FormatFloat(v, 'g', -1, 64), err)
				}
			}
			units = append(units, searchUnit{index: len(units), pipeline: p, params: assign})
		}
	}
	return units, nil
}

// cartesian expands the grid over the given keys; with no keys it returns a
// single empty assignment.
func cartesian(keys []string, grid map[string][]float64) []map[string]float64 {
	out := []map[string]float64{{}}
	for _, k := range keys {
		vals := grid[k]
		if len(vals) == 0 {
			continue
		}
		next := make([]map[string]float64, 0, len(out)*len(vals))
		for _, assign := range out {
			for _, v := range vals {
				na := make(map[string]float64, len(assign)+1)
				for ak, av := range assign {
					na[ak] = av
				}
				na[k] = v
				next = append(next, na)
			}
		}
		out = next
	}
	return out
}
