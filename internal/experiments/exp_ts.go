package experiments

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/sim"
	"coda/internal/tsgraph"
	"coda/internal/tswindow"
)

// tsSearch runs the Figure 11 graph on a series and returns the results.
func tsSearch(cfg Config, series *dataset.Dataset, slim bool) (*core.SearchResult, error) {
	g, err := tsgraph.New(tsgraph.Config{
		History: 8,
		Horizon: 1,
		Target:  0,
		Epochs:  cfg.pick(30, 8),
		Seed:    cfg.Seed,
		Slim:    slim,
	})
	if err != nil {
		return nil, err
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		return nil, err
	}
	n := series.NumSamples()
	return core.Search(context.Background(), g, series, core.SearchOptions{
		Splitter: crossval.SlidingSplit{K: 3, TrainSize: n / 2, TestSize: n / 6, Buffer: 8},
		Scorer:   scorer,
		Seed:     cfg.Seed,
	})
}

// RunT2 reproduces Table II: the time-series prediction pipeline's stages
// and components, run end-to-end on an autocorrelated industrial series
// with the TimeSeriesSlidingSplit evaluation and RMSE/MAPE scoring.
func RunT2(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	series, err := sim.GenerateSeries(sim.SeriesSpec{
		Steps: cfg.pick(400, 220), Vars: 2, Regime: sim.RegimeAR, Noise: 0.2,
	}, rng)
	if err != nil {
		return nil, err
	}
	g, err := tsgraph.New(tsgraph.Config{History: 8, Epochs: cfg.pick(30, 8), Seed: cfg.Seed, Slim: cfg.Quick})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "T2",
		Title:   "Table II time-series prediction pipeline",
		Columns: []string{"stage", "options"},
	}
	for _, st := range g.Stages() {
		names := ""
		for i, opt := range st.Options {
			if i > 0 {
				names += ", "
			}
			names += opt.Name
		}
		t.AddRow(st.Name, names)
	}
	t.AddRow("total pipelines", d(g.NumPipelines()))

	res, err := tsSearch(cfg, series, cfg.Quick)
	if err != nil {
		return nil, err
	}
	scorer, _ := metrics.ScorerByName("rmse")
	for _, u := range topUnits(res.Units, scorer, 5) {
		t.AddRow("top: "+u.Spec, f(u.Mean))
	}
	t.AddNote("selective edges: cascadedwindows->temporal nets, flatwindowing/tsasiid->DNNs, tsasis->statistical")
	return t, nil
}

// RunF6 reproduces Figure 6: the multivariate industrial series substrate,
// with per-regime summary statistics and generator throughput.
func RunF6(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F6",
		Title:   "Figure 6 multivariate series generator",
		Columns: []string{"regime", "steps", "vars", "lag-1 autocorr", "gen time"},
	}
	steps := cfg.pick(5000, 1000)
	for _, regime := range []sim.Regime{sim.RegimeAR, sim.RegimeRandomWalk, sim.RegimeTransactional, sim.RegimeSeasonal} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		start := time.Now()
		series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: steps, Vars: 4, Regime: regime}, rng)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		t.AddRow(regime.String(), d(series.NumSamples()), d(series.NumFeatures()),
			f(lag1(series.X.ColCopy(0))), dur.String())
	}
	return t, nil
}

func lag1(xs []float64) float64 {
	n := len(xs)
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(n)
	var num, den float64
	for i := 0; i < n-1; i++ {
		num += (xs[i] - mean) * (xs[i+1] - mean)
	}
	for _, v := range xs {
		den += (v - mean) * (v - mean)
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// windowExperiment shares the machinery of F7-F10.
func windowExperiment(cfg Config, id, title string, build func(history, horizon int) core.Transformer, history int) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.pick(20000, 2000)
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: steps, Vars: 3, Regime: sim.RegimeAR}, rng)
	if err != nil {
		return nil, err
	}
	tr := build(history, 1)
	start := time.Now()
	out, err := tr.Transform(series)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	t := &Table{
		ID:      id,
		Title:   title,
		Columns: []string{"quantity", "value"},
	}
	t.AddRow("input shape (T x v)", d(series.NumSamples())+" x "+d(series.NumFeatures()))
	t.AddRow("output samples", d(out.NumSamples()))
	t.AddRow("output width", d(out.X.Cols()))
	t.AddRow("window metadata (p x v)", d(out.WindowLen)+" x "+d(out.NumVars))
	t.AddRow("transform time", dur.String())
	t.AddRow("rows/sec", f(float64(out.NumSamples())/dur.Seconds()))
	return t, nil
}

// RunF7 reproduces Figure 7: cascaded windows for temporal networks.
func RunF7(cfg Config) (*Table, error) {
	t, err := windowExperiment(cfg, "F7", "Figure 7 cascaded windows (L-p windows of shape p x v, order preserved)",
		func(h, hz int) core.Transformer { return tswindow.NewCascadedWindows(h, hz, 0) }, 12)
	if err != nil {
		return nil, err
	}
	t.AddNote("single backing allocation; the bench suite ablates per-window allocation")
	return t, nil
}

// RunF8 reproduces Figure 8: flat windowing for standard DNNs.
func RunF8(cfg Config) (*Table, error) {
	return windowExperiment(cfg, "F8", "Figure 8 flat windowing (L-p windows of shape 1 x p*v, ordering semantics dropped)",
		func(h, hz int) core.Transformer { return tswindow.NewFlatWindowing(h, hz, 0) }, 12)
}

// RunF9 reproduces Figure 9: each timestamp as an IID sample.
func RunF9(cfg Config) (*Table, error) {
	return windowExperiment(cfg, "F9", "Figure 9 TS-as-IID (each timestamp an independent sample, no history)",
		func(_, hz int) core.Transformer { return tswindow.NewTSAsIID(hz, 0) }, 1)
}

// RunF10 reproduces Figure 10: the pass-through view for series-native
// models (Zero, AR).
func RunF10(cfg Config) (*Table, error) {
	return windowExperiment(cfg, "F10", "Figure 10 TS-as-is (raw ordered series for Zero/AR models)",
		func(_, hz int) core.Transformer { return tswindow.NewTSAsIs(hz, 0) }, 1)
}

// RunF11 reproduces Figure 11's purpose: run the full selectively-wired
// time-series graph across temporal regimes and report which model family
// wins where — the automatic discovery of the best modelling path.
func RunF11(cfg Config) (*Table, error) {
	t := &Table{
		ID:      "F11",
		Title:   "Figure 11 time-series pipeline: best path per temporal regime",
		Columns: []string{"regime", "best pipeline", "best RMSE", "zero-baseline RMSE", "improvement"},
	}
	steps := cfg.pick(400, 220)
	for _, regime := range []sim.Regime{sim.RegimeAR, sim.RegimeRandomWalk, sim.RegimeTransactional, sim.RegimeSeasonal} {
		rng := rand.New(rand.NewSource(cfg.Seed))
		series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: steps, Vars: 3, Regime: regime, Noise: 0.2}, rng)
		if err != nil {
			return nil, err
		}
		res, err := tsSearch(cfg, series, cfg.Quick)
		if err != nil {
			return nil, err
		}
		if res.Best == nil {
			t.AddRow(regime.String(), "all pipelines failed", "-", "-", "-")
			continue
		}
		// Find the Zero-model baseline's score among the units.
		baseline := "-"
		improvement := "-"
		for _, u := range res.Units {
			if u.Err == "" && strings.Contains(u.Spec, "zeromodel") {
				baseline = f(u.Mean)
				improvement = f(u.Mean / res.Best.Mean)
			}
		}
		t.AddRow(regime.String(), res.Best.Spec, f(res.Best.Mean), baseline, improvement)
	}
	t.AddNote("expected shape: AR/seasonal regimes -> history-using models win big; random walk -> nothing beats the Zero baseline meaningfully")
	return t, nil
}
