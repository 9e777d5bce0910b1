package matrix_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/sim"
	"coda/internal/tsgraph"
)

// TestSearchScoresSameOnBothKernelPaths is the bitwise contract seen from
// the top: the full Fig 11 search (simple and deep LSTM, CNN and DNN,
// WaveNet, SeriesNet; two workers) gives the same bits for every fold score
// and for Best whether the assembly kernels — the row kernel and the
// activations — or their portable twins did the arithmetic.
func TestSearchScoresSameOnBothKernelPaths(t *testing.T) {
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 120, Vars: 2, Regime: sim.RegimeAR}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	scorer, _ := metrics.ScorerByName("rmse")
	n := series.NumSamples()
	search := func() *core.SearchResult {
		g, err := tsgraph.New(tsgraph.Config{History: 6, Epochs: 2, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Search(context.Background(), g, series, core.SearchOptions{
			Splitter:    crossval.SlidingSplit{K: 2, TrainSize: n / 2, TestSize: n / 5, Buffer: 6},
			Scorer:      scorer,
			Parallelism: 2,
			Seed:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	native := search()
	if !matrix.UsePortableKernel(t) {
		t.Skip("no assembly kernel on this CPU: there is one path")
	}
	portable := search()

	if len(native.Units) != 48 || len(portable.Units) != len(native.Units) {
		t.Fatalf("%d and %d units, want 48 each", len(native.Units), len(portable.Units))
	}
	for i, u := range native.Units {
		p := portable.Units[i]
		if u.Spec != p.Spec || u.Err != "" || p.Err != "" || len(u.Scores) != len(p.Scores) {
			t.Fatalf("unit %d: %q (err %q) vs %q (err %q)", i, u.Spec, u.Err, p.Spec, p.Err)
		}
		for f := range u.Scores {
			if math.Float64bits(u.Scores[f]) != math.Float64bits(p.Scores[f]) {
				t.Fatalf("%s fold %d: asm %v, portable %v", u.Spec, f, u.Scores[f], p.Scores[f])
			}
		}
	}
	if native.Best.Spec != portable.Best.Spec || math.Float64bits(native.Best.Mean) != math.Float64bits(portable.Best.Mean) {
		t.Fatalf("best: asm %s %v, portable %s %v", native.Best.Spec, native.Best.Mean, portable.Best.Spec, portable.Best.Mean)
	}
}
