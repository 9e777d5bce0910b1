package nnmodels

import (
	"math/rand"
	"testing"

	"coda/internal/dataset"
	"coda/internal/sim"
	"coda/internal/tswindow"
)

// coldTSWindows are the windows a cold Fig 11 search's fold fits train on:
// 196 rows of 8 steps over 2 series, cascaded.
func coldTSWindows(b *testing.B) *dataset.Dataset {
	b.Helper()
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 204, Vars: 2, Regime: sim.RegimeAR, Noise: 0.1}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	ds, err := tswindow.NewCascadedWindows(8, 1, 0).Transform(series)
	if err != nil {
		b.Fatal(err)
	}
	if ds.NumSamples() != 196 {
		b.Fatalf("%d windows, want 196", ds.NumSamples())
	}
	return ds
}

// BenchmarkCausalStackFit times one 5-epoch Fit of the WaveNet and
// SeriesNet models on coldTSWindows — a search's later fold, which
// re-initialises the network the first fold built — beside the CNN and
// LSTM fits at the same shape, whose layers compute every step either
// way. Run it with -cpu 1, as the search's fold fits each run on one
// goroutine.
func BenchmarkCausalStackFit(b *testing.B) {
	ds := coldTSWindows(b)
	for _, m := range []*Regressor{NewWaveNetRegressor(), NewSeriesNetRegressor(), NewCNNRegressor(false), NewLSTMRegressor(false)} {
		b.Run(m.Name(), func(b *testing.B) {
			if err := m.SetParam("epochs", 5); err != nil {
				b.Fatal(err)
			}
			if err := m.Fit(ds); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Fit(ds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
