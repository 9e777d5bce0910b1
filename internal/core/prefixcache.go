package core

import (
	"context"
	"strings"
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
// train/test datasets with singleflight deduplication, so concurrent
// workers never fit the same prefix twice. The plan decides what it holds:
// each prefix counts the unsettled units that read it, and its entries on
// every fold are dropped when the last of them settles, however it does.
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
//
// An entry's train set also carries a dataset memo (dataset.WithMemo), on a
// header copy the entry owns, so the estimators of every unit that reads
// the entry share the work they derive from it: the tree family's presort,
// and a forest's trees, which a forest of more trees grows onto. That memo
// is dropped with its entry. The copy also carries its fold's memo, which
// every entry of the fold shares: there the tree family keeps what it
// grows once for all the entries whose columns rank alike, whatever
// scaler made them. The plan owns the fold memos and drops them with its
// last live prefix. A memo value is a function of what its key names, so
// a fit that reads it scores what a fit from scratch scores.

// Prefix-cache telemetry: the scoreboard for the within-client reuse
// claim, mirroring the DARR counters for the cross-client one.
var (
	mPrefixHits   = obs.GetCounter("coda_search_prefix_cache_hits_total")
	mPrefixMisses = obs.GetCounter("coda_search_prefix_cache_misses_total")
	// gPrefixBytes is the estimated size of the datasets cached entries
	// hold: the live set, the prefixes some unsettled unit still reads.
	gPrefixBytes = obs.GetGauge("coda_search_prefix_cache_bytes")
	mFoldsBuilt  = obs.GetCounter("coda_search_fold_datasets_total")
)

// PrefixCacheStats reports how one search's shared-prefix cache behaved.
// An entry is dropped only once no unit will read it, so every distinct
// (fold, prefix) pair is fitted at most once no matter how many units
// share it, and Fits == DistinctPrefixes on a search that computes all its
// units. The bench suite gates on that invariant.
type PrefixCacheStats struct {
	// Hits counts prefix resolutions served from the cache, including
	// waits on an in-flight computation (singleflight joins).
	Hits int64
	// Misses counts resolutions that had to compute the prefix.
	Misses int64
	// Fits counts transformer-node fit+transform computations performed.
	Fits int64
	// DistinctPrefixes counts the distinct (fold, prefix spec) pairs the
	// units planned for the cache read — the floor for Fits.
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

// prefixEntry is one (fold, prefix) slot. done is nil until a unit asks
// for it, and closes when the computation finishes; waiters block on it
// (singleflight). Results are written before close, so receivers observe
// them without further locking. Error entries are kept too (fits are
// deterministic, so the error would simply recur) at zero size.
type prefixEntry struct {
	done        chan struct{}
	train, test *dataset.Dataset
	err         error
	size        int64
}

// prefixCache memoizes fitted transformer prefixes for one search, in a
// table of slots indexed fold*len(refs) + prefix id.
type prefixCache struct {
	mu    sync.Mutex
	ids   [][]int // by unit: its prefix ids, shallowest first; nil for a unit outside the plan
	refs  []int   // by prefix id: the unsettled units that read it
	live  int     // prefix ids some unsettled unit reads
	slots []prefixEntry
	// memos[fold] is the memo every entry of the fold shares: what fits
	// derive from its train sets once for all of them. All are dropped
	// with the last live id, when no entry is left.
	memos []*dataset.Memo
	bytes int64

	hits, misses int64
}

// newPrefixCache plans the cache for every unit whose result is not yet
// in results — the ones the dispatcher has not settled. A unit's prefix
// ids are interned from its planned spec cut before each " -> " after the
// first, the bytes Pipeline.Spec renders up to that node (no node spec
// holds the separator: planUnits refuses one), so identical prefixes on different
// graph nodes share an id, and nothing is built or rendered.
func newPrefixCache(pl *plan, results []UnitResult, folds int) *prefixCache {
	const sep = " -> "
	c := &prefixCache{ids: make([][]int, len(pl.keys))}
	var all []int // every unit's ids, end to end
	intern := map[string]int{}
	depth := len(pl.paths[0]) // every path has one node per stage
	for i := range pl.keys {
		if results[i].Spec != "" {
			continue
		}
		spec, from, end := pl.spec(i), len(all), len("input")
		for d := 1; d < depth; d++ {
			end += len(sep) + strings.Index(spec[end+len(sep):], sep)
			id, ok := intern[spec[:end]]
			if !ok {
				id = len(c.refs)
				intern[spec[:end]] = id
				c.refs = append(c.refs, 0)
				c.live++
			}
			c.refs[id]++
			all = append(all, id)
		}
		c.ids[i] = all[from:len(all):len(all)]
	}
	c.slots = make([]prefixEntry, folds*len(c.refs))
	c.memos = make([]*dataset.Memo, folds)
	for i := range c.memos {
		c.memos[i] = new(dataset.Memo)
	}
	return c
}

// getOrCompute returns the datasets of prefix id on fold, joining an
// in-flight computation when one exists, or computes them — step applied to
// the level above, (train, test) — and keeps them; served reports which
// (true: from the cache or a peer's in-flight fit, false: step ran here).
// Waiting respects ctx so a cancelled search never blocks on a peer's fit.
func (c *prefixCache) getOrCompute(ctx context.Context, fold, id int, train, test *dataset.Dataset, step func(train, test *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset, error)) (trainOut, testOut *dataset.Dataset, served bool, err error) {
	c.mu.Lock()
	e := &c.slots[fold*len(c.refs)+id]
	if done := e.done; done != nil {
		c.hits++
		c.mu.Unlock()
		mPrefixHits.Inc()
		select {
		case <-done:
			return e.train, e.test, true, e.err
		case <-ctx.Done():
			return nil, nil, true, ctx.Err()
		}
	}
	done := make(chan struct{})
	e.done = done
	c.misses++
	memo := c.memos[fold]
	c.mu.Unlock()
	mPrefixMisses.Inc()

	trainOut, testOut, err = step(train, test)
	var size int64
	if err == nil {
		// The entry owns the header that carries its memo and the fold's.
		trainOut = trainOut.WithMemo(memo)
		// Conservative estimate: pass-through nodes (NoOp) alias their
		// input datasets, so an aliased entry is charged again.
		size = datasetBytes(trainOut) + datasetBytes(testOut)
	}

	// The unit computing the entry has not settled, so its id's count is
	// above zero and the slot is still this entry.
	c.mu.Lock()
	e.train, e.test, e.err, e.size = trainOut, testOut, err, size
	c.bytes += size
	gPrefixBytes.Add(float64(size))
	c.mu.Unlock()
	close(done)
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

// settle records that unit will read no prefix again, whatever its
// outcome: each of its ids loses one reader, and an id left with none has
// its entries dropped on every fold. Every unit in the plan settles once.
// A nil cache (disabled, or not planned yet) holds nothing.
func (c *prefixCache) settle(unit int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.ids[unit] {
		if c.refs[id]--; c.refs[id] > 0 {
			continue
		}
		if c.live--; c.live == 0 {
			clear(c.memos)
		}
		for i := id; i < len(c.slots); i += len(c.refs) {
			c.bytes -= c.slots[i].size
			gPrefixBytes.Add(-float64(c.slots[i].size))
			c.slots[i] = prefixEntry{}
		}
	}
}

// release returns what the cache still holds to the process-wide gauge
// when the search ends; that is nothing unless it ended early, with units
// of the plan unsettled.
func (c *prefixCache) release() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	gPrefixBytes.Add(-float64(c.bytes))
	c.bytes = 0
	clear(c.memos)
}

// stats snapshots the cache counters for SearchResult.
func (c *prefixCache) stats(folds int) PrefixCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PrefixCacheStats{
		Hits:             c.hits,
		Misses:           c.misses,
		Fits:             c.misses,
		DistinctPrefixes: int64(len(c.slots)),
		Folds:            folds,
	}
}
