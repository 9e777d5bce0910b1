package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
	"coda/internal/sim"
	"coda/internal/tsgraph"
)

// The system under test never sees the benchmark seed: it drives data
// generation only. Search and network seeds are this constant.
const searchSeed = 1

// searchJob is one search problem: graph, data and the options every
// client of the workload shares.
type searchJob struct {
	graph func() (*core.Graph, error)
	ds    *dataset.Dataset
	opts  core.SearchOptions
	units int
}

// coopStore builds the result store a cooperating coda-client searches
// with: the batched HTTP client with its publish queue. The caller closes
// the returned client.
func (b *bench) coopStore(n *node, clientID string) (cooperation, *httpapi.Client) {
	hc := b.client(n, clientID)
	hc.EnablePublishQueue(httpapi.DefaultPublishBatchSize, httpapi.DefaultPublishFlushInterval)
	if b.traced {
		return &tracedResults{next: hc, rec: b.rec}, hc
	}
	return hc, hc
}

// search runs one search; a nil store searches locally, otherwise units a
// peer has claimed are skipped, as coda-client does.
func (b *bench) search(ctx context.Context, job searchJob, st core.ResultStore, parallelism int) (*core.SearchResult, time.Duration, error) {
	g, err := job.graph()
	if err != nil {
		return nil, 0, err
	}
	opts := job.opts
	opts.Parallelism = parallelism
	opts.Store = st
	opts.SkipClaimed = st != nil
	t0 := time.Now()
	res, err := core.Search(ctx, g, job.ds, opts)
	return res, time.Since(t0), err
}

// sameBest reports whether a search picked the reference's winner with the
// reference's score, bit for bit.
func sameBest(got, ref *core.SearchResult) bool {
	return got.Best != nil && ref.Best != nil &&
		got.Best.Spec == ref.Best.Spec &&
		math.Float64bits(got.Best.Mean) == math.Float64bits(ref.Best.Mean)
}

// searchCounters are the per-search numbers of the core layer.
type searchCounters struct {
	wall            time.Duration
	res             *core.SearchResult
	mallocs, mbytes uint64
}

// counted runs fn between two MemStats reads.
func counted(fn func() (*core.SearchResult, time.Duration, error)) (searchCounters, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, wall, err := fn()
	runtime.ReadMemStats(&m1)
	return searchCounters{wall: wall, res: res, mallocs: m1.Mallocs - m0.Mallocs, mbytes: m1.TotalAlloc - m0.TotalAlloc}, err
}

// setCore reports one search's core-layer numbers. The four profile
// components sum to the search's profiled wall by construction.
func (b *bench) setCore(c searchCounters, units int) {
	p := c.res.Profile
	b.set("core.compute_s", p.Compute.Seconds())
	b.set("core.darr_wait_s", p.DARRWait.Seconds())
	b.set("core.queue_s", p.Queue.Seconds())
	b.set("core.other_s", (p.Total - p.Compute - p.DARRWait - p.Queue).Seconds())
	b.set("core.units", float64(units))
	b.set("core.units_computed", float64(c.res.Computed))
	b.set("core.units_cache_hit", float64(c.res.CacheHits))
	b.set("core.units_skipped", float64(c.res.Skipped))
	b.set("core.prefix_fits", float64(c.res.Prefix.Fits))
	if lookups := c.res.Prefix.Hits + c.res.Prefix.Misses; lookups > 0 {
		b.set("core.prefix_hit_ratio", float64(c.res.Prefix.Hits)/float64(lookups))
	}
	b.set("core.allocs_per_unit", float64(c.mallocs)/float64(units))
	b.set("core.bytes_per_unit", float64(c.mbytes)/float64(units))
	if wall := c.wall.Seconds(); wall > 0 {
		b.note("chain search wall %.4fs = core.compute %.4f + core.darr_wait %.4f + core.queue %.4f + core.other %.4f; unprofiled %.2f%%",
			wall, p.Compute.Seconds(), p.DARRWait.Seconds(), p.Queue.Seconds(),
			(p.Total - p.Compute - p.DARRWait - p.Queue).Seconds(), 100*math.Abs(wall-p.Total.Seconds())/wall)
		b.unexplained(math.Abs(wall-p.Total.Seconds()) / wall)
	}
}

// setDARRClient reports the client-side view of the DARR batch protocol
// from the spans of one phase.
func (b *bench) setDARRClient(spans []span) {
	b.set("darr.lookup_batch_ms.p50", median(durations(spans, "darr.lookup_batch")))
	b.set("darr.claim_batch_ms.p50", median(durations(spans, "darr.claim_batch")))
	b.set("darr.publish_batch_ms.p50", median(durations(spans, "http darr batch/records")))
	var asked, granted float64
	var rtt, handler []float64
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "http darr "):
			rtt = append(rtt, ms(s.dur()))
		case strings.HasPrefix(s.Name, "handler darr "):
			handler = append(handler, ms(s.dur()))
		case s.Name == "darr.claim_batch":
			asked += float64(s.Out)
			granted += float64(s.In)
		}
	}
	if asked > 0 {
		b.set("darr.claim_grant_ratio", granted/asked)
	}
	b.set("httpapi.darr_rtt_ms.p50", median(rtt))
	b.set("httpapi.darr_handler_ms.p50", median(handler))
	b.setHTTPTotals(spans)
}

func runSearchColdTS(b *bench) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	ds, err := sim.GenerateSeries(sim.SeriesSpec{Steps: b.sz.TSSteps, Vars: 2, Regime: sim.RegimeAR}, rng)
	if err != nil {
		return err
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		return err
	}
	n := ds.NumSamples()
	job := searchJob{
		graph: func() (*core.Graph, error) {
			return tsgraph.New(tsgraph.Config{History: 8, Epochs: b.sz.TSEpochs, Seed: searchSeed})
		},
		ds: ds,
		opts: core.SearchOptions{
			Splitter: crossval.SlidingSplit{K: 3, TrainSize: n / 2, TestSize: n / 6, Buffer: 8},
			Scorer:   scorer,
			Seed:     searchSeed,
		},
		units: 48,
	}
	// The discarded warm-up pass is a local search with no store: the same
	// fold fits, and its result is the reference every timed search must
	// reproduce bit for bit.
	ref, _, err := b.search(ctx, job, nil, 2)
	if err != nil {
		return err
	}
	if ref.Best == nil || len(ref.Units) != job.units {
		return fmt.Errorf("reference search: %d units, best %v", len(ref.Units), ref.Best)
	}
	if b.traced {
		b.probeSearchLayers(ds, nil)
	}
	b.endSetup()

	var runs []searchCounters
	var marks []int
	var walls []float64
	kernelMallocs, kernelBytes := kernelAllocs()
	for rep := 0; rep < b.sz.ColdReps && !b.overtime(); rep++ {
		node, err := b.boot(filepath.Join(b.dataRoot, fmt.Sprintf("cold-%d", rep))) // a fresh, empty DARR
		if err != nil {
			return err
		}
		mark := b.mark()
		next, hc := b.coopStore(node, "c0")
		// A search keeps both vCPUs busy for over a second: the reference
		// is timed where it publishes each of its 48 units.
		st := &refResults{cooperation: next}
		var c searchCounters
		_, err = timed(func() (err error) {
			c, err = counted(func() (*core.SearchResult, time.Duration, error) {
				return b.search(ctx, job, st, 2)
			})
			return err
		})
		b.cur.refMS = st.take()
		c.mallocs -= uint64(len(b.cur.refMS)) * kernelMallocs
		c.mbytes -= uint64(len(b.cur.refMS)) * kernelBytes
		b.attempted++
		if err = errors.Join(err, hc.Close()); err != nil {
			return err
		}
		switch {
		case !sameBest(c.res, ref):
			b.failf(1, "cold search %d: best %v, reference %v", rep, c.res.Best, ref.Best)
		case c.res.Computed != job.units || c.res.Degraded != 0:
			b.failf(1, "cold search %d: computed %d degraded %d of %d units", rep, c.res.Computed, c.res.Degraded, job.units)
		case node.repo.Len() != job.units:
			b.failf(1, "cold search %d: DARR holds %d records, want %d", rep, node.repo.Len(), job.units)
		}
		walls = append(walls, ms(c.wall))
		b.op(ms(c.wall))
		b.endBlock(1, c.wall)
		runs = append(runs, c)
		marks = append(marks, mark)
		if err := drop(node); err != nil {
			return err
		}
	}
	b.set("search_s", median(walls)/1000)
	b.note("search walls (ms): %.1f", walls)
	if b.traced {
		// Report the layers of the search whose wall is the median.
		mi := medianIndex(walls)
		b.setCore(runs[mi], job.units)
		marks = append(marks, b.mark())
		spans := b.since(marks[mi])[:marks[mi+1]-marks[mi]]
		b.setDARRClient(spans)
		b.set("darr.calls_per_search", float64(len(durationsPrefix(spans, "http darr "))))
		b.set("darr.claim_share_max", 1)
		b.set("darr.redundancy", 1)
	}
	return nil
}

// medianIndex returns the index of the sample percentile() calls the median.
func medianIndex(samples []float64) int {
	m := median(samples)
	for i, v := range samples {
		if v == m {
			return i
		}
	}
	return 0
}

// regressionGraph is cmd/coda-client's graph: 4 scalers x 3 selector
// chains x 4 models.
func regressionGraph() (*core.Graph, error) {
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
	return g, g.Finalize()
}

// coopClient is one cooperating client's progress through phase A.
type coopClient struct {
	id       string
	scores   map[int]float64 // unit index -> score held
	computed int
	last     *core.SearchResult
	done     time.Time
	err      error
}

// cooperate searches until the client holds a score for every unit,
// re-searching every 250 ms while a peer's claims made it skip some.
func (b *bench) cooperate(ctx context.Context, job searchJob, n *node, c *coopClient) {
	st, hc := b.coopStore(n, c.id)
	defer hc.Close()
	for len(c.scores) < job.units {
		res, _, err := b.search(ctx, job, st, 1)
		if err != nil {
			c.err = err
			return
		}
		c.computed += res.Computed
		c.last = res
		for _, u := range res.Units {
			if !u.Skipped && u.Err == "" {
				c.scores[u.Index] = u.Mean
			}
		}
		if res.Skipped == 0 {
			break
		}
		time.Sleep(250 * time.Millisecond)
	}
	c.done = time.Now()
}

// coopGrid is the search-coop-grid workload's state across its phases.
type coopGrid struct {
	b         *bench
	job       searchJob
	ref       *core.SearchResult
	refScores map[int]float64
}

// phaseA runs one cooperative completion against a fresh DARR: c0 and c1,
// c1 starting 100 ms later, until both hold every unit's score. It leaves
// the node up with its DARR full.
func (g *coopGrid) phaseA(ctx context.Context, rep string) (*node, time.Duration, [2]*coopClient, error) {
	cs := [2]*coopClient{{id: "c0", scores: map[int]float64{}}, {id: "c1", scores: map[int]float64{}}}
	node, err := g.b.boot(filepath.Join(g.b.dataRoot, "coop-"+rep))
	if err != nil {
		return nil, 0, cs, err
	}
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *coopClient) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * 100 * time.Millisecond)
			g.b.cooperate(ctx, g.job, node, c)
		}(i, c)
	}
	wg.Wait()
	end := cs[0].done
	if cs[1].done.After(end) {
		end = cs[1].done
	}
	return node, end.Sub(t0), cs, errors.Join(cs[0].err, cs[1].err)
}

// checkA holds one completion to the reference: every client has every
// unit's score bit for bit, and no unit was computed twice.
func (g *coopGrid) checkA(rep int, cs [2]*coopClient) (computed int) {
	b := g.b
	for _, c := range cs {
		computed += c.computed
		for i, want := range g.refScores {
			if got, ok := c.scores[i]; !ok || math.Float64bits(got) != math.Float64bits(want) {
				b.failf(1, "coop %d: %s holds %v for unit %d, reference %v", rep, c.id, got, i, want)
				break
			}
		}
		if !sameBest(c.last, g.ref) {
			b.failf(1, "coop %d: %s best %v, reference %v", rep, c.id, c.last.Best, g.ref.Best)
		}
	}
	if computed != g.job.units {
		b.failf(2, "coop %d: %d units computed by all clients for %d distinct units (redundancy must be 1)", rep, computed, g.job.units)
	}
	return computed
}

// phaseB runs one client's sequential warm searches against a full DARR:
// every unit is a hit. The reference kernel is timed before each search and
// the searches are cut into measured blocks. With traceEvery > 0 (traced
// pass) runs of that many searches alternate the program's own tracing on
// and off.
func (g *coopGrid) phaseB(ctx context.Context, st core.ResultStore, count, traceEvery int) (lat []float64, on []bool, err error) {
	defer trace.SetEnabled(g.b.traced)
	per := max(1, count/blocks)
	var blockWall time.Duration
	for i := 0; i < count; i++ {
		tracing := g.b.traced && (traceEvery == 0 || (i/traceEvery)%2 == 0)
		trace.SetEnabled(tracing)
		g.b.ref()
		res, wall, err := g.b.search(ctx, g.job, st, 1)
		if err != nil {
			return nil, nil, err
		}
		if res.CacheHits != g.job.units || !sameBest(res, g.ref) {
			g.b.failf(1, "warm search %d: %d/%d hits, best %v, reference %v", i, res.CacheHits, g.job.units, res.Best, g.ref.Best)
		}
		lat = append(lat, ms(wall))
		on = append(on, tracing)
		g.b.op(ms(wall))
		if blockWall += wall; (i+1)%per == 0 {
			g.b.endBlock(per, blockWall)
			blockWall = 0
			if g.b.overtime() {
				break
			}
		}
	}
	return lat, on, nil
}

// drop closes a node and removes its DSNs.
func drop(n *node) error {
	if err := n.close(); err != nil {
		return err
	}
	return os.RemoveAll(n.dir)
}

func runSearchCoopGrid(b *bench) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: b.sz.GridSamples, Features: 6, Informative: 3, Noise: 3}, rng)
	if err != nil {
		return err
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		return err
	}
	g := &coopGrid{b: b, refScores: map[int]float64{}, job: searchJob{
		graph: regressionGraph,
		ds:    ds,
		opts: core.SearchOptions{
			Splitter: crossval.KFold{K: 5, Shuffle: true},
			Scorer:   scorer,
			Seed:     searchSeed,
			ParamGrid: map[string][]float64{
				"randomforest__n_trees":   {10, 20, 30},
				"randomforest__max_depth": {4, 8},
				"decisiontree__max_depth": {3, 5, 8},
			},
		},
		units: 132,
	}}
	if g.ref, _, err = b.search(ctx, g.job, nil, 2); err != nil {
		return err
	}
	for _, u := range g.ref.Units {
		if u.Err == "" {
			g.refScores[u.Index] = u.Mean
		}
	}
	if g.ref.Best == nil || len(g.refScores) != g.job.units {
		return fmt.Errorf("reference search: %d of %d units scored, best %v", len(g.refScores), g.job.units, g.ref.Best)
	}

	// Warm-up: one discarded cooperative completion and a block of warm
	// searches.
	node, _, _, err := g.phaseA(ctx, "warmup")
	if err != nil {
		return err
	}
	st, hc := b.coopStore(node, "c2")
	_, _, err = g.phaseB(ctx, st, b.sz.WarmupSearches, 0)
	if err = errors.Join(err, hc.Close(), drop(node)); err != nil {
		return err
	}
	if b.traced {
		b.probeSearchLayers(nil, ds)
	}
	b.endSetup()

	// Phase A; the last repetition's node stays up for phase B.
	var complete []float64
	var computed, maxShare float64
	markA := b.mark()
	node = nil
	for rep := 0; rep < b.sz.CoopReps; rep++ {
		if node != nil {
			if err := drop(node); err != nil {
				return err
			}
		}
		var d time.Duration
		var cs [2]*coopClient
		node, d, cs, err = g.phaseA(ctx, fmt.Sprint(rep))
		b.attempted += 2
		if err != nil {
			return err
		}
		complete = append(complete, d.Seconds())
		repComputed := g.checkA(rep, cs)
		computed += float64(repComputed)
		for _, c := range cs {
			maxShare = max(maxShare, float64(c.computed)/float64(repComputed))
		}
	}
	b.set("coop_complete_s", median(complete))
	b.set("darr.claim_share_max", maxShare)
	b.set("darr.redundancy", computed/float64(b.sz.CoopReps*g.job.units))
	b.note("cooperative completions (s): %.3f", complete)
	spansA := b.since(markA)

	// Phase B.
	markB := b.mark()
	st, hc = b.coopStore(node, "c2")
	defer hc.Close()
	var lat []float64
	var on []bool
	_, err = timed(func() (err error) {
		lat, on, err = g.phaseB(ctx, st, b.sz.WarmSearches, max(1, b.sz.WarmSearches/8))
		return err
	})
	b.attempted += len(lat)
	if err != nil {
		return err
	}
	b.set("warm_search_ms.p50", percentile(lat, 0.50))
	b.set("warm_search_ms.p90", percentile(lat, 0.90))
	if b.traced {
		spansB := b.since(markB)
		b.setDARRClient(append(spansA, spansB...))
		roundTrips := durationsPrefix(spansB, "http darr ")
		b.set("darr.calls_per_search", float64(len(roundTrips))/float64(len(lat)))
		b.set("obs.trace_overhead_ratio", overheadRatio(lat, on))
		// One more warm search, alone, for the core layer's numbers.
		c, err := counted(func() (*core.SearchResult, time.Duration, error) {
			return b.search(ctx, g.job, st, 1)
		})
		if err != nil {
			return err
		}
		b.setCore(c, g.job.units)
		// What a warm search costs beyond its HTTP round trips.
		rtt := median(roundTrips) * b.values["darr.calls_per_search"]
		b.set("core.warm_overhead_ms", b.values["warm_search_ms.p50"]-rtt)
		b.note("chain warm_search_ms.p50 %.3f = httpapi darr round trips %.3f (handler %.3f + transport %.3f) + core.warm_overhead_ms %.3f",
			b.values["warm_search_ms.p50"], rtt, b.values["httpapi.darr_handler_ms.p50"],
			rtt-b.values["httpapi.darr_handler_ms.p50"], b.values["core.warm_overhead_ms"])
	}

	// Phase C: the results survive a restart of the server.
	if err := node.close(); err != nil {
		return err
	}
	if node, err = b.boot(node.dir); err != nil {
		return err
	}
	st3, hc3 := b.coopStore(node, "c3")
	res, _, err := b.search(ctx, g.job, st3, 1)
	b.attempted++
	if err = errors.Join(err, hc3.Close()); err != nil {
		return err
	}
	if res.CacheHits != g.job.units || !sameBest(res, g.ref) {
		b.failf(1, "after restart: %d/%d hits from the DARR, best %v, reference %v", res.CacheHits, g.job.units, res.Best, g.ref.Best)
	}
	return node.close()
}

// durationsPrefix returns, in ms, the duration of every span whose name
// starts with prefix.
func durationsPrefix(spans []span, prefix string) []float64 {
	var out []float64
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}
