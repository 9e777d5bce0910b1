package core

import (
	"container/list"
	"context"
	"sync"

	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/obs"
)

// The paper's Transformer-Estimator Graph exists because root-to-leaf
// paths share transformer prefixes, and the DARR avoids recomputing work
// across clients. This file closes the remaining gap within a client: a
// search over S scalers x F selectors x E estimators used to re-fit every
// shared transformer prefix once per unit per fold (S*F*E*K scaler fits),
// even though only S*K distinct scaler fits exist. The fold plan
// materializes each CV split's train/test datasets once per search, and
// the prefix cache memoizes (fold, canonical prefix spec) -> transformed
// train/test datasets behind a byte-bounded LRU with singleflight
// deduplication, so concurrent workers never fit the same prefix twice.
//
// The cache is a memo around the one per-node step (Node.fitTransform) and
// nothing more: a fold walk asks it for each level of the unit's prefix in
// turn and gets that step's outputs, computed now or by an earlier unit.
// It holds each node's materialized output, not a composition of several
// nodes, because the node boundary is where pipelines diverge — one scaled
// fold feeds every selector and windower below it — so a per-node entry is
// the unit that gets reused. A search without the cache runs the same step
// with no memo, which is why the two score bit-identically: entries hold
// the exact datasets the step produces (fitting is deterministic), and
// datasets are immutable once built — transformers clone matrices before
// writing and estimators copy what they keep.

// Prefix-cache telemetry: the scoreboard for the within-client reuse
// claim, mirroring the DARR counters for the cross-client one.
var (
	mPrefixHits      = obs.GetCounter("coda_search_prefix_cache_hits_total")
	mPrefixMisses    = obs.GetCounter("coda_search_prefix_cache_misses_total")
	mPrefixEvictions = obs.GetCounter("coda_search_prefix_cache_evictions_total")
	mPrefixFits      = obs.GetCounter("coda_search_prefix_fits_total")
	// gPrefixBytes is the estimated size of the cached datasets, the
	// quantity -prefix-cache-mb bounds.
	gPrefixBytes = obs.GetGauge("coda_search_prefix_cache_bytes")
	mFoldsBuilt  = obs.GetCounter("coda_search_fold_datasets_total")
)

// DefaultPrefixCacheMB is the prefix-cache capacity used when
// SearchOptions leaves PrefixCacheMB zero.
const DefaultPrefixCacheMB = 64

// PrefixCacheStats reports how one search's shared-prefix cache behaved.
// Absent evictions, Fits == DistinctPrefixes: every distinct
// (fold, prefix) pair was fitted exactly once no matter how many units
// shared it. The bench suite gates on that invariant.
type PrefixCacheStats struct {
	// Hits counts prefix resolutions served from the cache, including
	// waits on an in-flight computation (singleflight joins).
	Hits int64
	// Misses counts resolutions that had to compute the prefix.
	Misses int64
	// Evictions counts completed entries dropped by the byte-bounded LRU.
	Evictions int64
	// Fits counts transformer-node fit+transform computations performed.
	Fits int64
	// DistinctPrefixes counts distinct (fold, prefix spec) pairs the
	// search requested — the floor for Fits.
	DistinctPrefixes int64
	// Folds is the number of materialized cross-validation splits.
	Folds int
}

// foldData is one materialized cross-validation split: the train and
// test datasets every unit shares, built once per search instead of
// re-copied from the full dataset by every unit x fold evaluation.
type foldData struct {
	train, test *dataset.Dataset
}

// materializeFolds subsets the dataset once per split. The results are
// shared read-only across all worker goroutines.
func materializeFolds(ds *dataset.Dataset, splits []crossval.Split) []foldData {
	folds := make([]foldData, len(splits))
	for i, sp := range splits {
		folds[i] = foldData{train: ds.Subset(sp.Train), test: ds.Subset(sp.Test)}
		mFoldsBuilt.Add(2)
	}
	return folds
}

// prefixKey identifies one cached computation: a fold index plus the
// canonical spec of the transformer prefix (node component names with
// resolved parameter values, rendered by Pipeline.PrefixSpecs).
type prefixKey struct {
	fold int
	spec string
}

// prefixEntry is one cache slot. done closes when the computation
// finishes; waiters block on it (singleflight). Results are written
// before close, so receivers observe them without further locking.
type prefixEntry struct {
	key         prefixKey
	done        chan struct{}
	train, test *dataset.Dataset
	err         error
	size        int64
	// ready flips under the cache lock when results are in; only ready
	// entries are evictable, so an in-flight computation is never torn
	// out from under its waiters.
	ready bool
	// evicted marks entries removed from the LRU; a computation that
	// finishes after its entry was evicted skips byte accounting.
	evicted bool
}

// prefixCache memoizes fitted transformer prefixes for one search. It is
// byte-bounded: completed entries are LRU-evicted once the total
// estimated dataset size exceeds maxBytes. Error entries are cached too
// (fits are deterministic, so the error would simply recur) at zero cost.
type prefixCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[prefixKey]*list.Element
	ll       *list.List // of *prefixEntry; front = most recently used
	// seen records every key ever requested, never evicted, so stats can
	// report the distinct-pair floor for Fits.
	seen map[prefixKey]struct{}

	hits, misses, evictions, fits int64
}

func newPrefixCache(maxBytes int64) *prefixCache {
	if maxBytes <= 0 {
		maxBytes = int64(DefaultPrefixCacheMB) << 20
	}
	return &prefixCache{
		maxBytes: maxBytes,
		entries:  map[prefixKey]*list.Element{},
		ll:       list.New(),
		seen:     map[prefixKey]struct{}{},
	}
}

// getOrCompute returns the cached datasets for key, joining an in-flight
// computation when one exists, or computes them — step applied to the level
// above, (train, test) — and caches them; served reports which (true: from
// the cache or a peer's in-flight fit, false: step ran here). Waiting
// respects ctx so a cancelled search never blocks on a peer's fit.
func (c *prefixCache) getOrCompute(ctx context.Context, key prefixKey, train, test *dataset.Dataset, step func(train, test *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset, error)) (trainOut, testOut *dataset.Dataset, served bool, err error) {
	c.mu.Lock()
	c.seen[key] = struct{}{}
	if el, ok := c.entries[key]; ok {
		e := el.Value.(*prefixEntry)
		c.ll.MoveToFront(el)
		c.hits++
		c.mu.Unlock()
		mPrefixHits.Inc()
		select {
		case <-e.done:
			return e.train, e.test, true, e.err
		case <-ctx.Done():
			return nil, nil, true, ctx.Err()
		}
	}
	e := &prefixEntry{key: key, done: make(chan struct{})}
	el := c.ll.PushFront(e)
	c.entries[key] = el
	c.misses++
	c.fits++
	c.mu.Unlock()
	mPrefixMisses.Inc()
	mPrefixFits.Inc()

	trainOut, testOut, err = step(train, test)

	c.mu.Lock()
	e.train, e.test, e.err = trainOut, testOut, err
	if err == nil {
		// Conservative estimate: pass-through nodes (NoOp) alias their
		// input datasets, so an aliased entry is charged again; that only
		// makes eviction earlier, never correctness-relevant.
		e.size = datasetBytes(trainOut) + datasetBytes(testOut)
	}
	e.ready = true
	if !e.evicted {
		c.bytes += e.size
		gPrefixBytes.Add(float64(e.size))
		c.evictLocked(el)
	}
	c.mu.Unlock()
	close(e.done)
	return trainOut, testOut, false, err
}

// datasetBytes estimates a dataset's retained memory: 8 bytes per float64
// element, plus its column names and a fixed header.
func datasetBytes(ds *dataset.Dataset) int64 {
	if ds == nil {
		return 0
	}
	n := int64(len(ds.X.Data())+len(ds.Y)+len(ds.ColScale)+len(ds.ColOffset)) * 8
	for _, s := range ds.ColNames {
		n += int64(len(s))
	}
	return n + 64
}

// evictLocked drops least-recently-used completed entries until the cache
// fits its byte bound. In-flight entries and keep are never evicted, so a
// single oversized entry can briefly pin the cache above its cap; it
// becomes evictable as soon as anything newer lands. Caller holds c.mu.
func (c *prefixCache) evictLocked(keep *list.Element) {
	for c.bytes > c.maxBytes {
		el := c.ll.Back()
		for el != nil {
			e := el.Value.(*prefixEntry)
			if el != keep && e.ready {
				break
			}
			el = el.Prev()
		}
		if el == nil {
			return
		}
		e := el.Value.(*prefixEntry)
		c.ll.Remove(el)
		delete(c.entries, e.key)
		e.evicted = true
		c.bytes -= e.size
		gPrefixBytes.Add(-float64(e.size))
		c.evictions++
		mPrefixEvictions.Inc()
	}
}

// release returns the cache's bytes to the process-wide gauge when the
// search finishes; entry data is garbage as soon as callers drop it.
func (c *prefixCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	gPrefixBytes.Add(-float64(c.bytes))
	c.bytes = 0
}

// stats snapshots the cache counters for SearchResult.
func (c *prefixCache) stats(folds int) PrefixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PrefixCacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Evictions:        c.evictions,
		Fits:             c.fits,
		DistinctPrefixes: int64(len(c.seen)),
		Folds:            folds,
	}
}
