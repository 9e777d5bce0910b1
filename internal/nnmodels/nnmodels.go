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
//
// Every estimator takes a "precision" hyperparameter (64, the default, or
// 32): under 32 the network is instantiated over float32 and trained
// through the f32 matrix kernels with float64 master weights (see
// nn.Precision). Layer weight initialization consumes the seeded rng stream
// identically at either precision, so f32 results track f64 within the
// documented tolerance.
package nnmodels

import (
	"fmt"
	"math/rand"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/nn"
)

// coreEstimator aliases the interface every adapter's Clone must return.
type coreEstimator = core.Estimator

// netConfig carries the hyperparameters shared by every network estimator.
type netConfig struct {
	Epochs    int     // training epochs (default 60)
	Batch     int     // mini-batch size (default 32)
	LR        float64 // Adam learning rate (default 0.01)
	Hidden    int     // hidden width / filter count (default 16)
	Dropout   float64 // dropout rate (default 0.1)
	Seed      int64
	Precision nn.Precision // element width of the compute path (default 64)
}

func defaultConfig() netConfig {
	return netConfig{Epochs: 60, Batch: 32, LR: 0.01, Hidden: 16, Dropout: 0.1, Precision: nn.F64}
}

// setParam handles the shared hyperparameters; returns false for unknown
// keys and an error for invalid values of known keys.
func (c *netConfig) setParam(key string, v float64) (bool, error) {
	switch key {
	case "epochs":
		c.Epochs = int(v)
	case "batch":
		c.Batch = int(v)
	case "lr":
		c.LR = v
	case "hidden":
		c.Hidden = int(v)
	case "dropout":
		c.Dropout = v
	case "seed":
		c.Seed = int64(v)
	case "precision":
		switch int(v) {
		case 32:
			c.Precision = nn.F32
		case 64, 0:
			c.Precision = nn.F64
		default:
			return true, fmt.Errorf("nnmodels: precision %v not one of 32, 64", v)
		}
	default:
		return false, nil
	}
	return true, nil
}

func (c *netConfig) params() map[string]float64 {
	return map[string]float64{
		"epochs": float64(c.Epochs), "batch": float64(c.Batch), "lr": c.LR,
		"hidden": float64(c.Hidden), "dropout": c.Dropout, "seed": float64(c.Seed),
		"precision": float64(c.Precision),
	}
}

// applyParam routes SetParam through the shared config for one model.
func applyParam(model string, c *netConfig, key string, v float64) error {
	known, err := c.setParam(key, v)
	if err != nil {
		return err
	}
	if !known {
		return errUnknownParam(model, key)
	}
	return nil
}

func errUnknownParam(model, key string) error {
	return fmt.Errorf("nnmodels: %s has no parameter %q", model, key)
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

// netRunner erases the element type of a trained network so the estimator
// structs stay non-generic (core.Estimator is interface-driven).
type netRunner interface {
	fit(ds *dataset.Dataset, cfg netConfig) error
	predict(ds *dataset.Dataset) ([]float64, error)
}

// runner binds a network instantiation to conversion scratch for the
// dataset boundary. For float64 the dataset's X/Y are used directly (zero
// copy — bitwise identical to the historical path); for float32 they are
// converted once per fit/predict, preferring a shared dataset F32 mirror
// when one is installed (prefix-cached datasets).
type runner[T matrix.Float] struct {
	net *nn.NetworkOf[T]
	x   *matrix.Mat[T]
	y   []T
}

func (r *runner[T]) inputs(ds *dataset.Dataset) (*matrix.Mat[T], []T) {
	if x, ok := any(ds.X).(*matrix.Mat[T]); ok {
		return x, any(ds.Y).([]T)
	}
	// T = float32 from here down.
	if x32, y32, ok := ds.F32(); ok {
		return any(x32).(*matrix.Mat[T]), any(y32).([]T)
	}
	r.x = matrix.ConvertInto(r.x, ds.X)
	r.y = matrix.ConvertVec(r.y, ds.Y)
	return r.x, r.y
}

func (r *runner[T]) fit(ds *dataset.Dataset, cfg netConfig) error {
	fc := nn.FitConfig{Epochs: cfg.Epochs, BatchSize: cfg.Batch, Seed: cfg.Seed}
	x, y := r.inputs(ds)
	return r.net.Fit(x, y, fc)
}

func (r *runner[T]) predict(ds *dataset.Dataset) ([]float64, error) {
	x, _ := r.inputs(ds)
	return r.net.Predict(x)
}

// DNNRegressor is the paper's standard (IID) deep neural network: simple =
// two hidden layers with dropout, deep = four. It treats rows as flat
// feature vectors and so pairs with FlatWindowing or TSAsIID.
type DNNRegressor struct {
	Deep bool
	cfg  netConfig

	run netRunner
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
	return applyParam(d.Name(), &d.cfg, key, v)
}

// Params implements core.Component.
func (d *DNNRegressor) Params() map[string]float64 { return d.cfg.params() }

// Clone implements core.Estimator.
func (d *DNNRegressor) Clone() coreEstimator { return &DNNRegressor{Deep: d.Deep, cfg: d.cfg} }

func buildDNN[T matrix.Float](deep bool, in int, cfg netConfig) *runner[T] {
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	hiddenLayers := 2
	if deep {
		hiddenLayers = 4
	}
	layers := make([]nn.LayerOf[T], 0, hiddenLayers*3+1)
	width := in
	for i := 0; i < hiddenLayers; i++ {
		layers = append(layers, nn.NewDenseOf[T](width, h, rng), nn.NewReLUOf[T](), nn.NewDropoutOf[T](cfg.Dropout, rng))
		width = h
	}
	layers = append(layers, nn.NewDenseOf[T](width, 1, rng))
	return &runner[T]{net: nn.NewNetworkOf[T](nn.NewAdamOf[T](cfg.LR), layers...)}
}

// Fit builds and trains the network.
func (d *DNNRegressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", d.Name())
	}
	in := ds.NumFeatures()
	if d.cfg.Precision == nn.F32 {
		d.run = buildDNN[float32](d.Deep, in, d.cfg)
	} else {
		d.run = buildDNN[float64](d.Deep, in, d.cfg)
	}
	if err := d.run.fit(ds, d.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", d.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (d *DNNRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if d.run == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", d.Name())
	}
	return d.run.predict(ds)
}

// LSTMRegressor is the paper's temporal LSTM model: simple = one LSTM layer
// plus dropout, deep = four stacked LSTM layers each followed by dropout.
// Both end in a fully-connected linear layer.
type LSTMRegressor struct {
	Deep bool
	cfg  netConfig

	run netRunner
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
	return applyParam(l.Name(), &l.cfg, key, v)
}

// Params implements core.Component.
func (l *LSTMRegressor) Params() map[string]float64 { return l.cfg.params() }

// Clone implements core.Estimator.
func (l *LSTMRegressor) Clone() coreEstimator { return &LSTMRegressor{Deep: l.Deep, cfg: l.cfg} }

func buildLSTM[T matrix.Float](deep bool, seqLen, channels int, cfg netConfig) *runner[T] {
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	var layers []nn.LayerOf[T]
	if deep {
		inSize := channels
		for i := 0; i < 3; i++ {
			lstm := nn.NewLSTMOf[T](seqLen, inSize, h, rng)
			lstm.ReturnSeq = true
			layers = append(layers, lstm, nn.NewDropoutOf[T](cfg.Dropout, rng))
			inSize = h
		}
		layers = append(layers, nn.NewLSTMOf[T](seqLen, h, h, rng), nn.NewDropoutOf[T](cfg.Dropout, rng))
	} else {
		layers = append(layers, nn.NewLSTMOf[T](seqLen, channels, h, rng), nn.NewDropoutOf[T](cfg.Dropout, rng))
	}
	layers = append(layers, nn.NewDenseOf[T](h, 1, rng))
	return &runner[T]{net: nn.NewNetworkOf[T](nn.NewAdamOf[T](cfg.LR), layers...)}
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
	if l.cfg.Precision == nn.F32 {
		l.run = buildLSTM[float32](l.Deep, seqLen, channels, l.cfg)
	} else {
		l.run = buildLSTM[float64](l.Deep, seqLen, channels, l.cfg)
	}
	if err := l.run.fit(ds, l.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", l.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (l *LSTMRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if l.run == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", l.Name())
	}
	if _, _, err := windowDims(l.Name(), ds); err != nil {
		return nil, err
	}
	return l.run.predict(ds)
}

// CNNRegressor is the paper's 1-D convolutional model: a convolution, max
// pooling, a dense ReLU layer and a linear output; the deep variant stacks
// a second convolution-pool stage.
type CNNRegressor struct {
	Deep bool
	cfg  netConfig

	run netRunner
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
	return applyParam(c.Name(), &c.cfg, key, v)
}

// Params implements core.Component.
func (c *CNNRegressor) Params() map[string]float64 { return c.cfg.params() }

// Clone implements core.Estimator.
func (c *CNNRegressor) Clone() coreEstimator { return &CNNRegressor{Deep: c.Deep, cfg: c.cfg} }

func buildCNN[T matrix.Float](deep bool, seqLen, channels int, cfg netConfig) *runner[T] {
	const kernel = 3
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	var layers []nn.LayerOf[T]
	conv1 := nn.NewConv1DOf[T](seqLen, channels, f, kernel, 1, false, rng)
	layers = append(layers, conv1, nn.NewReLUOf[T]())
	length := conv1.OutLen()
	if length >= 2 {
		pool := nn.NewMaxPool1DOf[T](length, f, 2)
		layers = append(layers, pool)
		length = pool.OutLen()
	}
	if deep && length >= kernel+1 {
		conv2 := nn.NewConv1DOf[T](length, f, f, kernel, 1, false, rng)
		layers = append(layers, conv2, nn.NewReLUOf[T]())
		length = conv2.OutLen()
		if length >= 2 {
			pool2 := nn.NewMaxPool1DOf[T](length, f, 2)
			layers = append(layers, pool2)
			length = pool2.OutLen()
		}
	}
	layers = append(layers,
		nn.NewDenseOf[T](length*f, cfg.Hidden, rng), nn.NewReLUOf[T](),
		nn.NewDropoutOf[T](cfg.Dropout, rng),
		nn.NewDenseOf[T](cfg.Hidden, 1, rng),
	)
	return &runner[T]{net: nn.NewNetworkOf[T](nn.NewAdamOf[T](cfg.LR), layers...)}
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
	if c.cfg.Precision == nn.F32 {
		c.run = buildCNN[float32](c.Deep, seqLen, channels, c.cfg)
	} else {
		c.run = buildCNN[float64](c.Deep, seqLen, channels, c.cfg)
	}
	if err := c.run.fit(ds, c.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", c.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (c *CNNRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if c.run == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", c.Name())
	}
	if _, _, err := windowDims(c.Name(), ds); err != nil {
		return nil, err
	}
	return c.run.predict(ds)
}

// WaveNetRegressor stacks gated dilated causal convolutions (dilations 1,
// 2, 4) with residual connections — the probabilistic-audio architecture
// the paper adopts for time-series prediction — followed by a linear head
// on the final timestep.
type WaveNetRegressor struct {
	cfg netConfig

	run netRunner
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
	return applyParam(w.Name(), &w.cfg, key, v)
}

// Params implements core.Component.
func (w *WaveNetRegressor) Params() map[string]float64 { return w.cfg.params() }

// Clone implements core.Estimator.
func (w *WaveNetRegressor) Clone() coreEstimator { return &WaveNetRegressor{cfg: w.cfg} }

func buildWaveNet[T matrix.Float](seqLen, channels int, cfg netConfig) *runner[T] {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	layers := []nn.LayerOf[T]{
		// 1x1 causal conv lifts the input channels to the block width.
		nn.NewConv1DOf[T](seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range []int{1, 2, 4} {
		layers = append(layers, nn.NewGatedResidualBlockOf[T](seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestepOf[T](seqLen, f), nn.NewDenseOf[T](f, 1, rng))
	return &runner[T]{net: nn.NewNetworkOf[T](nn.NewAdamOf[T](cfg.LR), layers...)}
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
	if w.cfg.Precision == nn.F32 {
		w.run = buildWaveNet[float32](seqLen, channels, w.cfg)
	} else {
		w.run = buildWaveNet[float64](seqLen, channels, w.cfg)
	}
	if err := w.run.fit(ds, w.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", w.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (w *WaveNetRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if w.run == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", w.Name())
	}
	if _, _, err := windowDims(w.Name(), ds); err != nil {
		return nil, err
	}
	return w.run.predict(ds)
}

// SeriesNetRegressor is the WaveNet-derived architecture of Section IV-C2:
// residual dilated causal convolution blocks (dilations 1, 2, 4, 8) with
// ReLU activations and linear skip projections, requiring no data
// preprocessing beyond windowing.
type SeriesNetRegressor struct {
	cfg netConfig

	run netRunner
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
	return applyParam(s.Name(), &s.cfg, key, v)
}

// Params implements core.Component.
func (s *SeriesNetRegressor) Params() map[string]float64 { return s.cfg.params() }

// Clone implements core.Estimator.
func (s *SeriesNetRegressor) Clone() coreEstimator { return &SeriesNetRegressor{cfg: s.cfg} }

func buildSeriesNet[T matrix.Float](seqLen, channels int, cfg netConfig) *runner[T] {
	rng := rand.New(rand.NewSource(cfg.Seed))
	f := cfg.Hidden
	layers := []nn.LayerOf[T]{
		nn.NewConv1DOf[T](seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range []int{1, 2, 4, 8} {
		layers = append(layers, nn.NewResidualConvBlockOf[T](seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestepOf[T](seqLen, f), nn.NewDenseOf[T](f, 1, rng))
	return &runner[T]{net: nn.NewNetworkOf[T](nn.NewAdamOf[T](cfg.LR), layers...)}
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
	if s.cfg.Precision == nn.F32 {
		s.run = buildSeriesNet[float32](seqLen, channels, s.cfg)
	} else {
		s.run = buildSeriesNet[float64](seqLen, channels, s.cfg)
	}
	if err := s.run.fit(ds, s.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", s.Name(), err)
	}
	return nil
}

// Predict implements core.Estimator.
func (s *SeriesNetRegressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if s.run == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", s.Name())
	}
	if _, _, err := windowDims(s.Name(), ds); err != nil {
		return nil, err
	}
	return s.run.predict(ds)
}
