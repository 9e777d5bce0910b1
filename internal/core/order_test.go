package core_test

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/obs"
	"coda/internal/sim"
	"coda/internal/tsgraph"
)

// estimatorOf is the estimator node of a unit's spec, and the one before
// it: "cascadedwindows(...) -> deeplstm(...)" is ("deeplstm",
// "cascadedwindows").
func estimatorOf(spec string) (model, before string) {
	parts := strings.Split(spec, " -> ")
	name := func(s string) string { n, _, _ := strings.Cut(s, "("); return n }
	return name(parts[len(parts)-1]), name(parts[len(parts)-2])
}

// fig11Order plans the Figure 11 graph at History 8 under grid and orders
// it over search-cold-ts's series shape: 400 steps of 2 variables.
func fig11Order(t *testing.T, grid map[string][]float64) ([]int, []core.PlannedUnit) {
	t.Helper()
	g, err := tsgraph.New(tsgraph.Config{History: 8, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}
	units, err := core.PlanUnits(g, grid, "fp", "eval")
	if err != nil {
		t.Fatal(err)
	}
	g, _ = tsgraph.New(tsgraph.Config{History: 8, Epochs: 5})
	order, err := core.DispatchOrder(g, grid, core.Shape{Rows: 400, Cols: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != len(units) {
		t.Fatalf("order of %d units for %d planned", len(order), len(units))
	}
	seen := make([]bool, len(units))
	for _, u := range order {
		if seen[u] {
			t.Fatalf("unit %d dispatched twice: %v", u, order)
		}
		seen[u] = true
	}
	return order, units
}

// TestFig11DispatchesLongestFirst: the Figure 11 search hands its units
// out by estimated fit cost, family by family in the order of their
// measured per-unit medians (Parallelism 1, 5 epochs, 400 steps:
// deeplstm 47 ms, lstm 8-9, wavenet 6-7, seriesnet 4-5, the CNNs and
// DNNs 1-2, the statistical models 0.04-0.13). So the four deeplstm
// units go out first, and units of equal cost — a family under the four
// scalers, which keep the shape — go out in plan order.
func TestFig11DispatchesLongestFirst(t *testing.T) {
	rank := map[string]int{
		"deeplstm": 0, "lstm": 1, "wavenet": 2, "seriesnet": 3,
		"cnn": 4, "deepcnn": 4, "deepdnn": 4, "dnn": 4,
		"armodel": 5, "zeromodel": 5,
	}
	order, units := fig11Order(t, nil)
	last := map[[2]string]int{} // family and its preprocessor: the last unit of it dispatched
	for pos, u := range order {
		model, before := estimatorOf(units[u].Spec)
		r, ok := rank[model]
		if !ok {
			t.Fatalf("unit %d: unknown model %q", u, model)
		}
		if pos < 4 && model != "deeplstm" {
			t.Errorf("position %d is %s, want the four deeplstm units first", pos, model)
		}
		if pos > 0 {
			prev, _ := estimatorOf(units[order[pos-1]].Spec)
			if rank[prev] > r {
				t.Errorf("position %d: %s after %s, a costlier family after a cheaper one", pos, model, prev)
			}
		}
		key := [2]string{model, before}
		if p, ok := last[key]; ok && p > u {
			t.Errorf("%s after %s: unit %d dispatched after unit %d, ties must keep plan order", model, before, u, p)
		}
		last[key] = u
	}
}

// TestGriddedUnitsCostTheirOwnHyperparameters: a grid key on a node makes
// each unit of its paths cost what its own pipeline states, so 100-epoch
// LSTMs go out ahead of 5-epoch deep ones, and 1-epoch ones behind them.
func TestGriddedUnitsCostTheirOwnHyperparameters(t *testing.T) {
	order, units := fig11Order(t, map[string][]float64{"lstm__epochs": {1, 100}})
	var got []string
	for _, u := range order[:8] {
		model, _ := estimatorOf(units[u].Spec)
		if model == "lstm" && !strings.Contains(units[u].Spec, "epochs=100") {
			model += "(1 epoch)"
		}
		got = append(got, model)
	}
	want := []string{"lstm", "lstm", "lstm", "lstm", "deeplstm", "deeplstm", "deeplstm", "deeplstm"}
	if !slices.Equal(got, want) {
		t.Fatalf("first eight units dispatched: %v, want %v", got, want)
	}
}

// TestCoopGridKeepsPlanOrder: trees, forests, KNN and linear models state
// no fit cost, so the coop grid and Figure 3 go out in plan order.
func TestCoopGridKeepsPlanOrder(t *testing.T) {
	for _, kc := range keyCases() {
		if kc.name == "fig11" {
			continue
		}
		order, err := core.DispatchOrder(kc.graph(t), kc.grid, core.Shape{Rows: 400, Cols: 6})
		if err != nil {
			t.Fatal(err)
		}
		if order != nil {
			t.Errorf("%s: dispatch order %v, want plan order", kc.name, order)
		}
	}
}

// peakPrefixBytes runs a search with opts under ctx and returns the
// largest coda_search_prefix_cache_bytes reading any fold's scoring saw
// above the reading before it.
func peakPrefixBytes(t *testing.T, ctx context.Context, g *core.Graph, ds *dataset.Dataset, opts core.SearchOptions) float64 {
	t.Helper()
	gauge := obs.GetGauge("coda_search_prefix_cache_bytes")
	base, peak := gauge.Value(), atomic.Int64{}
	score := opts.Scorer.Fn
	opts.Scorer.Fn = func(y, yhat []float64) (float64, error) {
		n := int64(gauge.Value() - base)
		for old := peak.Load(); n > old && !peak.CompareAndSwap(old, n); old = peak.Load() {
		}
		return score(y, yhat)
	}
	res, err := core.Search(ctx, g, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prefix.Fits != res.Prefix.DistinctPrefixes {
		t.Errorf("%d prefix fits for %d distinct prefixes: an entry was fitted twice", res.Prefix.Fits, res.Prefix.DistinctPrefixes)
	}
	return float64(peak.Load())
}

// TestPrefixCachePeakUnderDispatchOrder: the prefix cache frees an entry
// when its last unit settles, so the order units run in sets how many are
// live at once. Under longest-first, both canonical searches fit each
// distinct prefix once and stay far below 64 MiB of cached datasets; the
// Figure 11 search is also measured in plan order, for comparison.
func TestPrefixCachePeakUnderDispatchOrder(t *testing.T) {
	const budget = 64 << 20
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 2, Regime: sim.RegimeAR}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	rmse, _ := metrics.ScorerByName("rmse")
	n := series.NumSamples()
	fig11 := core.SearchOptions{
		Splitter: crossval.SlidingSplit{K: 3, TrainSize: n / 2, TestSize: n / 6, Buffer: 8},
		Scorer:   rmse, Parallelism: 2, Seed: 1,
	}
	graph := func() *core.Graph {
		g, err := tsgraph.New(tsgraph.Config{History: 8, Epochs: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	ctx := context.Background()
	longest := peakPrefixBytes(t, ctx, graph(), series, fig11)
	planOrder := peakPrefixBytes(t, core.WithDispatchPermutation(ctx, slices.Sort), graph(), series, fig11)
	kc := keyCases()[0]
	coop := kc.opts
	coop.ParamGrid, coop.Parallelism = kc.grid, 2
	coopPeak := peakPrefixBytes(t, ctx, kc.graph(t), kc.ds(t), coop)
	t.Logf("peak prefix-cache bytes: fig11 %.0f longest first, %.0f in plan order; coop grid %.0f", longest, planOrder, coopPeak)
	for name, peak := range map[string]float64{"fig11": longest, "coop grid": coopPeak} {
		if peak <= 0 || peak > budget {
			t.Errorf("%s: peak prefix-cache bytes %.0f, want some and at most %d", name, peak, budget)
		}
	}
}
