// Package nnmodels adapts the internal/nn substrate to core.Estimator,
// providing the paper's Section IV-C model zoo for the time-series
// prediction pipeline:
//
//   - Temporal models: LSTM (simple = 1 layer, deep = 4 stacked layers with
//     per-layer dropout), CNN (simple and deep 1-D convolutional nets),
//     WaveNet (stacked gated dilated causal convolutions) and SeriesNet
//     (WaveNet-derived residual dilated stacks). These consume cascaded
//     windows (WindowLen/NumVars metadata set by tswindow.CascadedWindows).
//   - IID models: standard DNNs (simple = 2 hidden layers, deep = 4),
//     consuming flat windows or TS-as-IID rows.
//
// All models train with Adam on mean squared error.
package nnmodels

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/nn"
)

// coreEstimator aliases the interface every adapter's Clone must return.
type coreEstimator = core.Estimator

// netConfig carries the hyperparameters shared by every network estimator.
type netConfig struct {
	Epochs  int     // training epochs (default 60)
	Batch   int     // mini-batch size (default 32)
	LR      float64 // Adam learning rate (default 0.01)
	Hidden  int     // hidden width / filter count (default 16)
	Dropout float64 // dropout rate (default 0.1)
	Seed    int64
}

func defaultConfig() netConfig {
	return netConfig{Epochs: 60, Batch: 32, LR: 0.01, Hidden: 16, Dropout: 0.1}
}

// setParam sets one shared hyperparameter of model, refusing an unknown key
// and a value the network could not train with: a width, epoch count or
// batch size that is not a whole number of at least 1, a learning rate
// that is not positive and finite, or a dropout rate outside [0, 1).
func (c *netConfig) setParam(model, key string, v float64) error {
	count := func(dst *int) error {
		if !(v >= 1 && v <= math.MaxInt32 && v == math.Trunc(v)) {
			return fmt.Errorf("nnmodels: %s %s %v is not a whole number >= 1", model, key, v)
		}
		*dst = int(v)
		return nil
	}
	switch key {
	case "epochs":
		return count(&c.Epochs)
	case "batch":
		return count(&c.Batch)
	case "hidden":
		return count(&c.Hidden)
	case "lr":
		if !(v > 0 && !math.IsInf(v, 1)) {
			return fmt.Errorf("nnmodels: %s lr %v is not positive and finite", model, v)
		}
		c.LR = v
	case "dropout":
		if !(v >= 0 && v < 1) {
			return fmt.Errorf("nnmodels: %s dropout %v outside [0, 1)", model, v)
		}
		c.Dropout = v
	case "seed":
		c.Seed = int64(v)
	default:
		return fmt.Errorf("nnmodels: %s has no parameter %q", model, key)
	}
	return nil
}

func (c *netConfig) params() map[string]float64 {
	return map[string]float64{
		"epochs": float64(c.Epochs), "batch": float64(c.Batch), "lr": c.LR,
		"hidden": float64(c.Hidden), "dropout": c.Dropout, "seed": float64(c.Seed),
	}
}

// train fits a freshly built network on ds.
func train(net *nn.Network, ds *dataset.Dataset, cfg netConfig) error {
	return net.Fit(ds.X, ds.Y, nn.FitConfig{Epochs: cfg.Epochs, BatchSize: cfg.Batch, Seed: cfg.Seed})
}

// windowDims extracts and validates the (seqLen, channels) metadata that
// temporal estimators need from a cascaded-windows dataset.
func windowDims(model string, ds *dataset.Dataset) (seqLen, channels int, err error) {
	if ds.WindowLen <= 0 || ds.NumVars <= 0 {
		return 0, 0, fmt.Errorf("nnmodels: %s requires cascaded-window input (WindowLen/NumVars metadata); got a flat dataset — route it through tswindow.CascadedWindows", model)
	}
	if ds.NumFeatures() != ds.WindowLen*ds.NumVars {
		return 0, 0, fmt.Errorf("nnmodels: %s window metadata %dx%d inconsistent with %d columns", model, ds.WindowLen, ds.NumVars, ds.NumFeatures())
	}
	return ds.WindowLen, ds.NumVars, nil
}

// windowShape is the (steps, variables) shape of the cascaded windows a
// temporal model was fitted on.
type windowShape struct{ seqLen, channels int }

// predictWindows is every temporal estimator's Predict: the model must be
// fitted, and ds's windows must have the shape it was fitted on. The
// network checks only its input width, seqLen·channels, so without this a
// model fitted on 8x2 windows would read 4x4 ones as if they were 8x2.
func predictWindows(model string, net *nn.Network, fitted windowShape, ds *dataset.Dataset) ([]float64, error) {
	if net == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", model)
	}
	seqLen, channels, err := windowDims(model, ds)
	if err != nil {
		return nil, err
	}
	if got := (windowShape{seqLen, channels}); got != fitted {
		return nil, fmt.Errorf("nnmodels: %s was fitted on %dx%d windows (steps x variables), cannot predict on %dx%d",
			model, fitted.seqLen, fitted.channels, got.seqLen, got.channels)
	}
	return net.Predict(ds.X)
}

// DNNRegressor is the paper's standard (IID) deep neural network: simple =
// two hidden layers with dropout, deep = four. It treats rows as flat
// feature vectors and so pairs with FlatWindowing or TSAsIID.
type DNNRegressor struct {
	Deep bool
	cfg  netConfig

	net *nn.Network
}

// NewDNNRegressor returns an unfitted DNN (simple or deep).
func NewDNNRegressor(deep bool) *DNNRegressor {
	return &DNNRegressor{Deep: deep, cfg: defaultConfig()}
}

// Name implements core.Component.
func (d *DNNRegressor) Name() string {
	if d.Deep {
		return "deepdnn"
	}
	return "dnn"
}

// SetParam implements core.Component.
func (d *DNNRegressor) SetParam(key string, v float64) error {
	return d.cfg.setParam(d.Name(), key, v)
}

// Params implements core.Component.
func (d *DNNRegressor) Params() map[string]float64 { return d.cfg.params() }

// Clone implements core.Estimator.
func (d *DNNRegressor) Clone() coreEstimator { return &DNNRegressor{Deep: d.Deep, cfg: d.cfg} }

func buildDNN(deep bool, in int, cfg netConfig) *nn.Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	hiddenLayers := 2
	if deep {
		hiddenLayers = 4
	}
	layers := make([]nn.Layer, 0, hiddenLayers*3+1)
	width := in
	for i := 0; i < hiddenLayers; i++ {
		layers = append(layers, nn.NewDense(width, h, rng), nn.NewReLU(), nn.NewDropout(cfg.Dropout, rng))
		width = h
	}
	layers = append(layers, nn.NewDense(width, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

// Fit builds and trains the network.
func (d *DNNRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", d.Name())
	}
	in := ds.NumFeatures()
	d.net = buildDNN(d.Deep, in, d.cfg)
	if err := train(d.net, ds, d.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", d.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (d *DNNRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if d.net == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", d.Name())
	}
	return d.net.Predict(ds.X)
}

// LSTMRegressor is the paper's temporal LSTM model: simple = one LSTM layer
// plus dropout, deep = four stacked LSTM layers each followed by dropout.
// Both end in a fully-connected linear layer.
type LSTMRegressor struct {
	Deep bool
	cfg  netConfig

	net *nn.Network
	win windowShape
}

// NewLSTMRegressor returns an unfitted LSTM model.
func NewLSTMRegressor(deep bool) *LSTMRegressor {
	c := defaultConfig()
	c.Hidden = 12
	return &LSTMRegressor{Deep: deep, cfg: c}
}

// Name implements core.Component.
func (l *LSTMRegressor) Name() string {
	if l.Deep {
		return "deeplstm"
	}
	return "lstm"
}

// SetParam implements core.Component.
func (l *LSTMRegressor) SetParam(key string, v float64) error {
	return l.cfg.setParam(l.Name(), key, v)
}

// Params implements core.Component.
func (l *LSTMRegressor) Params() map[string]float64 { return l.cfg.params() }

// Clone implements core.Estimator.
func (l *LSTMRegressor) Clone() coreEstimator { return &LSTMRegressor{Deep: l.Deep, cfg: l.cfg} }

func buildLSTM(deep bool, seqLen, channels int, cfg netConfig) *nn.Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	var layers []nn.Layer
	if deep {
		inSize := channels
		for i := 0; i < 3; i++ {
			lstm := nn.NewLSTM(seqLen, inSize, h, rng)
			lstm.ReturnSeq = true
			layers = append(layers, lstm, nn.NewDropout(cfg.Dropout, rng))
			inSize = h
		}
		layers = append(layers, nn.NewLSTM(seqLen, h, h, rng), nn.NewDropout(cfg.Dropout, rng))
	} else {
		layers = append(layers, nn.NewLSTM(seqLen, channels, h, rng), nn.NewDropout(cfg.Dropout, rng))
	}
	layers = append(layers, nn.NewDense(h, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

// Fit builds the recurrent stack from the window metadata and trains it.
func (l *LSTMRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", l.Name())
	}
	seqLen, channels, err := windowDims(l.Name(), ds)
	if err != nil {
		return err
	}
	l.net = buildLSTM(l.Deep, seqLen, channels, l.cfg)
	l.win = windowShape{seqLen, channels}
	if err := train(l.net, ds, l.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", l.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (l *LSTMRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	return predictWindows(l.Name(), l.net, l.win, ds)
}

// CNNRegressor is the paper's 1-D convolutional model: a convolution, max
// pooling, a dense ReLU layer and a linear output; the deep variant stacks
// a second convolution-pool stage.
type CNNRegressor struct {
	Deep bool
	cfg  netConfig

	net *nn.Network
	win windowShape
}

// NewCNNRegressor returns an unfitted CNN model.
func NewCNNRegressor(deep bool) *CNNRegressor {
	c := defaultConfig()
	c.Hidden = 8
	return &CNNRegressor{Deep: deep, cfg: c}
}

// Name implements core.Component.
func (c *CNNRegressor) Name() string {
	if c.Deep {
		return "deepcnn"
	}
	return "cnn"
}

// SetParam implements core.Component.
func (c *CNNRegressor) SetParam(key string, v float64) error {
	return c.cfg.setParam(c.Name(), key, v)
}

// Params implements core.Component.
func (c *CNNRegressor) Params() map[string]float64 { return c.cfg.params() }

// Clone implements core.Estimator.
func (c *CNNRegressor) Clone() coreEstimator { return &CNNRegressor{Deep: c.Deep, cfg: c.cfg} }

func buildCNN(deep bool, seqLen, channels int, cfg netConfig) *nn.Network {
	const kernel = 3
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	var layers []nn.Layer
	conv1 := nn.NewConv1D(seqLen, channels, f, kernel, 1, false, rng)
	layers = append(layers, conv1, nn.NewReLU())
	length := conv1.OutLen()
	if length >= 2 {
		pool := nn.NewMaxPool1D(length, f, 2)
		layers = append(layers, pool)
		length = pool.OutLen()
	}
	if deep && length >= kernel+1 {
		conv2 := nn.NewConv1D(length, f, f, kernel, 1, false, rng)
		layers = append(layers, conv2, nn.NewReLU())
		length = conv2.OutLen()
		if length >= 2 {
			pool2 := nn.NewMaxPool1D(length, f, 2)
			layers = append(layers, pool2)
			length = pool2.OutLen()
		}
	}
	layers = append(layers,
		nn.NewDense(length*f, cfg.Hidden, rng), nn.NewReLU(),
		nn.NewDropout(cfg.Dropout, rng),
		nn.NewDense(cfg.Hidden, 1, rng),
	)
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

// Fit builds the convolutional stack from the window metadata.
func (c *CNNRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", c.Name())
	}
	seqLen, channels, err := windowDims(c.Name(), ds)
	if err != nil {
		return err
	}
	const kernel = 3
	if seqLen < kernel+1 {
		return fmt.Errorf("nnmodels: %s needs history >= %d, got %d", c.Name(), kernel+1, seqLen)
	}
	c.net = buildCNN(c.Deep, seqLen, channels, c.cfg)
	c.win = windowShape{seqLen, channels}
	if err := train(c.net, ds, c.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", c.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (c *CNNRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	return predictWindows(c.Name(), c.net, c.win, ds)
}

// WaveNetRegressor stacks gated dilated causal convolutions (dilations 1,
// 2, 4) with residual connections — the probabilistic-audio architecture
// the paper adopts for time-series prediction — followed by a linear head
// on the final timestep.
type WaveNetRegressor struct {
	cfg netConfig

	net *nn.Network
	win windowShape
}

// NewWaveNetRegressor returns an unfitted WaveNet model.
func NewWaveNetRegressor() *WaveNetRegressor {
	c := defaultConfig()
	c.Hidden = 8
	return &WaveNetRegressor{cfg: c}
}

// Name implements core.Component.
func (w *WaveNetRegressor) Name() string { return "wavenet" }

// SetParam implements core.Component.
func (w *WaveNetRegressor) SetParam(key string, v float64) error {
	return w.cfg.setParam(w.Name(), key, v)
}

// Params implements core.Component.
func (w *WaveNetRegressor) Params() map[string]float64 { return w.cfg.params() }

// Clone implements core.Estimator.
func (w *WaveNetRegressor) Clone() coreEstimator { return &WaveNetRegressor{cfg: w.cfg} }

func buildWaveNet(seqLen, channels int, cfg netConfig) *nn.Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	layers := []nn.Layer{
		// 1x1 causal conv lifts the input channels to the block width.
		nn.NewConv1D(seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range []int{1, 2, 4} {
		layers = append(layers, nn.NewGatedResidualBlock(seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestep(seqLen, f), nn.NewDense(f, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

// Fit builds the gated dilated stack.
func (w *WaveNetRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", w.Name())
	}
	seqLen, channels, err := windowDims(w.Name(), ds)
	if err != nil {
		return err
	}
	w.net = buildWaveNet(seqLen, channels, w.cfg)
	w.win = windowShape{seqLen, channels}
	if err := train(w.net, ds, w.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", w.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (w *WaveNetRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	return predictWindows(w.Name(), w.net, w.win, ds)
}

// SeriesNetRegressor is the WaveNet-derived architecture of Section IV-C2:
// residual dilated causal convolution blocks (dilations 1, 2, 4, 8) with
// ReLU activations and linear skip projections, requiring no data
// preprocessing beyond windowing.
type SeriesNetRegressor struct {
	cfg netConfig

	net *nn.Network
	win windowShape
}

// NewSeriesNetRegressor returns an unfitted SeriesNet model.
func NewSeriesNetRegressor() *SeriesNetRegressor {
	c := defaultConfig()
	c.Hidden = 8
	return &SeriesNetRegressor{cfg: c}
}

// Name implements core.Component.
func (s *SeriesNetRegressor) Name() string { return "seriesnet" }

// SetParam implements core.Component.
func (s *SeriesNetRegressor) SetParam(key string, v float64) error {
	return s.cfg.setParam(s.Name(), key, v)
}

// Params implements core.Component.
func (s *SeriesNetRegressor) Params() map[string]float64 { return s.cfg.params() }

// Clone implements core.Estimator.
func (s *SeriesNetRegressor) Clone() coreEstimator { return &SeriesNetRegressor{cfg: s.cfg} }

func buildSeriesNet(seqLen, channels int, cfg netConfig) *nn.Network {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	layers := []nn.Layer{
		nn.NewConv1D(seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range []int{1, 2, 4, 8} {
		layers = append(layers, nn.NewResidualConvBlock(seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestep(seqLen, f), nn.NewDense(f, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

// Fit builds the residual dilated stack.
func (s *SeriesNetRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", s.Name())
	}
	seqLen, channels, err := windowDims(s.Name(), ds)
	if err != nil {
		return err
	}
	s.net = buildSeriesNet(seqLen, channels, s.cfg)
	s.win = windowShape{seqLen, channels}
	if err := train(s.net, ds, s.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", s.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (s *SeriesNetRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	return predictWindows(s.Name(), s.net, s.win, ds)
}
