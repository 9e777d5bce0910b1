package nnmodels

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/nn"
	"coda/internal/sim"
	"coda/internal/tswindow"
)

var (
	_ core.Estimator = (*DNNRegressor)(nil)
	_ core.Estimator = (*LSTMRegressor)(nil)
	_ core.Estimator = (*CNNRegressor)(nil)
	_ core.Estimator = (*WaveNetRegressor)(nil)
	_ core.Estimator = (*SeriesNetRegressor)(nil)
)

// windowedAR builds cascaded-window train/test sets from an AR-regime
// series, where temporal structure is learnable.
func windowedAR(t *testing.T, history int) (train, test *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 1, Regime: sim.RegimeAR, Noise: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	windows, err := tswindow.NewCascadedWindows(history, 1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	cut := windows.NumSamples() * 3 / 4
	return windows.SliceRange(0, cut), windows.SliceRange(cut, windows.NumSamples())
}

// persistenceRMSE scores the "predict the window's final value" baseline.
func persistenceRMSE(t *testing.T, test *dataset.Dataset) float64 {
	t.Helper()
	preds := make([]float64, test.NumSamples())
	lastCol := (test.WindowLen-1)*test.NumVars + 0
	for i := range preds {
		preds[i] = test.X.At(i, lastCol)
	}
	r, err := metrics.RMSE(test.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func fitScore(t *testing.T, m core.Estimator, train, test *dataset.Dataset) float64 {
	t.Helper()
	if err := m.Fit(train); err != nil {
		t.Fatalf("%s fit: %v", m.Name(), err)
	}
	preds, err := m.Predict(test)
	if err != nil {
		t.Fatalf("%s predict: %v", m.Name(), err)
	}
	r, err := metrics.RMSE(test.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTemporalModelsBeatPersistenceOnARData(t *testing.T) {
	train, test := windowedAR(t, 8)
	base := persistenceRMSE(t, test)
	models := []core.Estimator{
		NewLSTMRegressor(false),
		NewCNNRegressor(false),
		NewWaveNetRegressor(),
		NewSeriesNetRegressor(),
	}
	for _, m := range models {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			rmse := fitScore(t, m, train, test)
			if rmse >= base {
				t.Fatalf("%s RMSE %v not better than persistence %v on AR data", m.Name(), rmse, base)
			}
		})
	}
}

func TestDeepVariantsTrain(t *testing.T) {
	train, test := windowedAR(t, 6)
	for _, m := range []core.Estimator{NewLSTMRegressor(true), NewCNNRegressor(true)} {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			if err := m.SetParam("epochs", 10); err != nil {
				t.Fatal(err)
			}
			rmse := fitScore(t, m, train, test)
			if rmse > 10*persistenceRMSE(t, test) {
				t.Fatalf("%s diverged: RMSE %v", m.Name(), rmse)
			}
		})
	}
}

func TestDNNOnFlatWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 1, Regime: sim.RegimeAR, Noise: 0.1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tswindow.NewFlatWindowing(8, 1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	cut := flat.NumSamples() * 3 / 4
	train, test := flat.SliceRange(0, cut), flat.SliceRange(cut, flat.NumSamples())
	dnn := NewDNNRegressor(false)
	if err := dnn.SetParam("epochs", 80); err != nil {
		t.Fatal(err)
	}
	rmse := fitScore(t, dnn, train, test)
	// Flat windows retain history, so the DNN should do far better than
	// predicting the series mean.
	mean := 0.0
	for _, v := range train.Y {
		mean += v
	}
	mean /= float64(len(train.Y))
	meanPreds := make([]float64, test.NumSamples())
	for i := range meanPreds {
		meanPreds[i] = mean
	}
	meanRMSE, _ := metrics.RMSE(test.Y, meanPreds)
	if rmse >= meanRMSE*0.7 {
		t.Fatalf("DNN RMSE %v vs mean baseline %v", rmse, meanRMSE)
	}
}

func TestTemporalModelsRejectFlatInput(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 100, Vars: 1, Regime: sim.RegimeAR}, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tswindow.NewFlatWindowing(6, 1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []core.Estimator{NewLSTMRegressor(false), NewCNNRegressor(false), NewWaveNetRegressor(), NewSeriesNetRegressor()} {
		err := m.Fit(flat)
		if err == nil {
			t.Fatalf("%s accepted flat input", m.Name())
		}
		if !strings.Contains(err.Error(), "cascaded-window") {
			t.Fatalf("%s error %q should mention cascaded windows", m.Name(), err)
		}
	}
}

func TestSetParamAndClone(t *testing.T) {
	models := []core.Estimator{
		NewDNNRegressor(false), NewDNNRegressor(true),
		NewLSTMRegressor(false), NewLSTMRegressor(true),
		NewCNNRegressor(false), NewCNNRegressor(true),
		NewWaveNetRegressor(), NewSeriesNetRegressor(),
	}
	seen := map[string]bool{}
	for _, m := range models {
		if seen[m.Name()] {
			t.Fatalf("duplicate model name %s", m.Name())
		}
		seen[m.Name()] = true
		if err := m.SetParam("epochs", 5); err != nil {
			t.Fatalf("%s SetParam(epochs): %v", m.Name(), err)
		}
		if err := m.SetParam("bogus", 1); err == nil {
			t.Fatalf("%s accepted bogus param", m.Name())
		}
		c := m.Clone()
		if c.Name() != m.Name() {
			t.Fatalf("clone renamed %s -> %s", m.Name(), c.Name())
		}
		if c.Params()["epochs"] != 5 {
			t.Fatalf("%s clone lost epochs", m.Name())
		}
		if _, err := c.Predict(&dataset.Dataset{}); err == nil {
			t.Fatalf("%s clone should be unfitted", m.Name())
		}
	}
}

// TestSetParamRefusesUntrainableValues: every network estimator refuses,
// at SetParam, a value its network could not train with — a negative width
// would panic inside Fit, a zero width would fit an empty network, and a
// non-positive epoch or batch count would train nn's defaults under a spec
// recording the value given. The error names the model and the key, and
// the refused value is not kept.
func TestSetParamRefusesUntrainableValues(t *testing.T) {
	bad := []struct {
		key string
		v   float64
	}{
		{"hidden", -3}, {"hidden", 0}, {"hidden", 2.5}, {"hidden", math.NaN()},
		{"epochs", 0}, {"epochs", -1}, {"epochs", 1.5},
		{"batch", 0}, {"batch", -32}, {"batch", math.Inf(1)},
		{"lr", 0}, {"lr", -0.01}, {"lr", math.NaN()}, {"lr", math.Inf(1)},
		{"dropout", -0.1}, {"dropout", 1}, {"dropout", math.NaN()},
	}
	good := map[string]float64{"hidden": 1, "epochs": 1, "batch": 1, "lr": 1e-4, "dropout": 0}
	models := []core.Estimator{
		NewDNNRegressor(false), NewDNNRegressor(true),
		NewLSTMRegressor(false), NewLSTMRegressor(true),
		NewCNNRegressor(false), NewCNNRegressor(true),
		NewWaveNetRegressor(), NewSeriesNetRegressor(),
	}
	for _, m := range models {
		t.Run(m.Name(), func(t *testing.T) {
			for _, c := range bad {
				before := m.Params()[c.key]
				err := m.SetParam(c.key, c.v)
				if err == nil {
					t.Errorf("SetParam(%s, %v) accepted", c.key, c.v)
					continue
				}
				if !strings.Contains(err.Error(), m.Name()) || !strings.Contains(err.Error(), c.key) {
					t.Errorf("SetParam(%s, %v): error %q does not name both model and key", c.key, c.v, err)
				}
				if after := m.Params()[c.key]; after != before {
					t.Errorf("SetParam(%s, %v) refused but changed %s from %v to %v", c.key, c.v, c.key, before, after)
				}
			}
			for k, v := range good {
				if err := m.SetParam(k, v); err != nil {
					t.Errorf("SetParam(%s, %v): %v", k, v, err)
				}
			}
		})
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	train, test := windowedAR(t, 6)
	run := func() []float64 {
		m := NewLSTMRegressor(false)
		if err := m.SetParam("epochs", 5); err != nil {
			t.Fatal(err)
		}
		if err := m.SetParam("seed", 7); err != nil {
			t.Fatal(err)
		}
		if err := m.Fit(train); err != nil {
			t.Fatal(err)
		}
		p, err := m.Predict(test)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical seeds must give identical models")
		}
	}
}

// cascaded windows series of vars variables into history-step windows.
func cascaded(t *testing.T, vars, history int) *dataset.Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(45))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 80, Vars: vars, Regime: sim.RegimeAR}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tswindow.NewCascadedWindows(history, 1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTemporalPredictRefusesOtherWindowShape: 8x2 and 4x4 windows are both
// 16 columns, which is all the network's first layer checks. A temporal
// model fitted on one must refuse the other, naming both shapes, and still
// predict on the shape it was fitted on.
func TestTemporalPredictRefusesOtherWindowShape(t *testing.T) {
	fitted, other := cascaded(t, 2, 8), cascaded(t, 4, 4)
	if fitted.NumFeatures() != other.NumFeatures() {
		t.Fatalf("%d and %d columns: the shapes must share a width", fitted.NumFeatures(), other.NumFeatures())
	}
	for _, m := range []core.Estimator{NewLSTMRegressor(false), NewCNNRegressor(false), NewWaveNetRegressor(), NewSeriesNetRegressor()} {
		t.Run(m.Name(), func(t *testing.T) {
			if err := m.SetParam("epochs", 1); err != nil {
				t.Fatal(err)
			}
			if err := m.Fit(fitted); err != nil {
				t.Fatal(err)
			}
			_, err := m.Predict(other)
			if err == nil {
				t.Fatal("predicted on 4x4 windows after a fit on 8x2 ones")
			}
			if !strings.Contains(err.Error(), "8x2") || !strings.Contains(err.Error(), "4x4") {
				t.Fatalf("error %q does not name both shapes", err)
			}
			if _, err := m.Predict(fitted); err != nil {
				t.Fatalf("predict on the fitted shape: %v", err)
			}
		})
	}
}

// TestPredictMatchesOneRowForward pins blocked inference to its meaning:
// Predict runs the network over blocks of the fit's batch size in the
// buffers training grew, and every value must equal a Forward over that
// row alone, bit for bit, for all five architectures (batch 7, so the
// 30-odd rows make several blocks and a short last one).
func TestPredictMatchesOneRowForward(t *testing.T) {
	windows := cascaded(t, 2, 6)
	rng := rand.New(rand.NewSource(46))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 80, Vars: 2, Regime: sim.RegimeAR}, rng)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := tswindow.NewFlatWindowing(6, 1, 0).Transform(series)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		m   core.Estimator
		ds  *dataset.Dataset
		net func(core.Estimator) *nn.Network
	}{
		{NewDNNRegressor(true), flat, func(m core.Estimator) *nn.Network { return m.(*DNNRegressor).net }},
		{NewLSTMRegressor(true), windows, func(m core.Estimator) *nn.Network { return m.(*LSTMRegressor).net }},
		{NewCNNRegressor(true), windows, func(m core.Estimator) *nn.Network { return m.(*CNNRegressor).net }},
		{NewWaveNetRegressor(), windows, func(m core.Estimator) *nn.Network { return m.(*WaveNetRegressor).net }},
		{NewSeriesNetRegressor(), windows, func(m core.Estimator) *nn.Network { return m.(*SeriesNetRegressor).net }},
	} {
		t.Run(c.m.Name(), func(t *testing.T) {
			for k, v := range map[string]float64{"epochs": 2, "batch": 7} {
				if err := c.m.SetParam(k, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.m.Fit(c.ds); err != nil {
				t.Fatal(err)
			}
			preds, err := c.m.Predict(c.ds)
			if err != nil {
				t.Fatal(err)
			}
			net := c.net(c.m)
			for i, p := range preds {
				row, err := matrix.FromSlice(1, c.ds.NumFeatures(), c.ds.X.RowCopy(i))
				if err != nil {
					t.Fatal(err)
				}
				out, err := net.Forward(row, false)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(out.At(0, 0)) != math.Float64bits(p) {
					t.Fatalf("row %d: Predict %v, one-row Forward %v", i, p, out.At(0, 0))
				}
			}
		})
	}
}
