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

// TestSearchScoresSameOnEveryKernelPath is the bitwise contract seen from
// the top: the full Fig 11 search (simple and deep LSTM, CNN and DNN,
// WaveNet, SeriesNet; two workers) gives the same bits for every fold score
// and for Best whether the portable twins or the assembly kernels — the
// row kernel, the activations and the LSTM step kernels — at any level this
// CPU runs did the arithmetic.
func TestSearchScoresSameOnEveryKernelPath(t *testing.T) {
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
	paths := matrix.KernelPaths(t)
	if len(paths) == 1 {
		t.Skip("no assembly kernel on this CPU: there is one path")
	}
	matrix.UseKernelPath(t, paths[0])
	portable := search()
	if len(portable.Units) != 48 {
		t.Fatalf("%d units, want 48", len(portable.Units))
	}
	for _, path := range paths[1:] {
		matrix.UseKernelPath(t, path)
		asm := search()
		if len(asm.Units) != len(portable.Units) {
			t.Fatalf("%s: %d units, want %d", path, len(asm.Units), len(portable.Units))
		}
		for i, u := range asm.Units {
			p := portable.Units[i]
			if u.Spec != p.Spec || u.Err != "" || p.Err != "" || len(u.Scores) != len(p.Scores) {
				t.Fatalf("%s unit %d: %q (err %q) vs portable %q (err %q)", path, i, u.Spec, u.Err, p.Spec, p.Err)
			}
			for f := range u.Scores {
				if math.Float64bits(u.Scores[f]) != math.Float64bits(p.Scores[f]) {
					t.Fatalf("%s fold %d: %s %v, portable %v", u.Spec, f, path, u.Scores[f], p.Scores[f])
				}
			}
		}
		if asm.Best.Spec != portable.Best.Spec || math.Float64bits(asm.Best.Mean) != math.Float64bits(portable.Best.Mean) {
			t.Fatalf("best: %s %s %v, portable %s %v", path, asm.Best.Spec, asm.Best.Mean, portable.Best.Spec, portable.Best.Mean)
		}
	}
}
