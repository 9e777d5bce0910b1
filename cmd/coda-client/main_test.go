package main

import (
	"context"
	"math"
	"math/rand"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// flushSignal is an httpapi.Client that reports each Flush: core.Search
// flushes once before it settles the units a peer holds and once on exit.
type flushSignal struct {
	*httpapi.Client
	flushed func()
}

func (f *flushSignal) Flush(ctx context.Context) error {
	err := f.Client.Flush(ctx)
	f.flushed()
	return err
}

// TestSearchToCompletionFinishesWhatItJoined: a client that joins while a
// peer holds claims skips those units in its first pass; the helper keeps
// searching until nothing is skipped, so both clients end with the whole
// table and the same winner. The first client's fold fits are held until
// the joiner's first pass is over, so that pass must skip.
func TestSearchToCompletionFinishesWhatItJoined(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 80, Features: 4, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	graph := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 5), mlmodels.NewDecisionTree(mlmodels.TreeRegression))
		return g
	}
	const units = 9
	scorer, _ := metrics.ScorerByName("rmse")
	ts := httptest.NewServer(httpapi.NewServer(darr.NewRepo(nil, time.Minute), nil))
	defer ts.Close()
	opts := func(store core.ResultStore) core.SearchOptions {
		return core.SearchOptions{
			Splitter: crossval.KFold{K: 3, Shuffle: true}, Scorer: scorer, Seed: 3,
			Parallelism: 1, Store: store,
		}
	}

	firstHolds := make(chan struct{})   // the first client has been granted its window
	joinerPassed := make(chan struct{}) // the joiner's first pass is over
	var flushes atomic.Int32
	joiner := &flushSignal{Client: httpapi.NewClient(ts.URL, "joiner"), flushed: func() {
		if flushes.Add(1) == 2 {
			close(joinerPassed)
		}
	}}
	joiner.Metric = "rmse"
	first := httpapi.NewClient(ts.URL, "first")
	first.Metric = "rmse"
	firstOpts := opts(first)
	var once sync.Once
	firstOpts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		once.Do(func() { close(firstHolds) })
		<-joinerPassed
		return scorer.Fn(y, yhat)
	}

	type outcome struct {
		res      *core.SearchResult
		computed int
		err      error
	}
	run := func(o core.SearchOptions, out *outcome, wg *sync.WaitGroup) {
		defer wg.Done()
		out.res, out.computed, out.err = searchToCompletion(context.Background(), graph(), ds, o, time.Millisecond)
	}
	var a, b outcome
	var wg sync.WaitGroup
	wg.Add(2)
	go run(firstOpts, &a, &wg)
	<-firstHolds
	go run(opts(joiner), &b, &wg)
	wg.Wait()
	for name, o := range map[string]outcome{"first": a, "joiner": b} {
		if o.err != nil {
			t.Fatalf("%s: %v", name, o.err)
		}
		if o.res.Skipped != 0 || o.res.Computed+o.res.CacheHits != units || o.res.Best == nil {
			t.Fatalf("%s ended with computed %d, hits %d, skipped %d, best %v; want all %d units scored",
				name, o.res.Computed, o.res.CacheHits, o.res.Skipped, o.res.Best, units)
		}
	}
	if flushes.Load() < 3 { // two in the pass that skipped, one in every pass after it
		t.Errorf("the joiner flushed %d times: it never searched again after skipping", flushes.Load())
	}
	if a.computed < 1 || b.computed < 1 || a.computed+b.computed != units {
		t.Errorf("first computed %d, joiner %d; want both at work and %d in all", a.computed, b.computed, units)
	}
	if a.res.Best.Spec != b.res.Best.Spec || math.Float64bits(a.res.Best.Mean) != math.Float64bits(b.res.Best.Mean) {
		t.Errorf("first serves %s %v, joiner %s %v", a.res.Best.Spec, a.res.Best.Mean, b.res.Best.Spec, b.res.Best.Mean)
	}
}
