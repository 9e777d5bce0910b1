// Package nnmodels adapts the internal/nn substrate to core.Estimator,
// providing the paper's Section IV-C model zoo for the time-series
// prediction pipeline. Every network is a Regressor; its constructor picks
// the variant:
//
//   - Temporal models: LSTM (simple = 1 layer, deep = 4 stacked layers with
//     per-layer dropout), CNN (simple and deep 1-D convolutional nets),
//     WaveNet (stacked gated dilated causal convolutions) and SeriesNet
//     (WaveNet-derived residual dilated stacks). These consume cascaded
//     windows (WindowLen/NumVars metadata set by tswindow.NewCascadedWindows).
//   - IID models: standard DNNs (simple = 2 hidden layers, deep = 4),
//     consuming flat windows or TS-as-IID rows.
//
// All models train with Adam on mean squared error.
package nnmodels

import (
	"fmt"
	"math"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/nn"
)

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

// train fits a network at its starting weights on ds.
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

// windowShape is the (steps, variables) shape of the rows a model was
// fitted on; a flat row is one step of all its columns.
type windowShape struct{ seqLen, channels int }

// Regressor is one network of the zoo. Its constructor fixes its name, its
// default hyperparameters, whether it reads cascaded windows, the shortest
// window it can convolve, the function that builds its layers, drawing
// their weights and dropout masks from the generator it is given, and the
// one that counts a forward pass's multiply-adds per row (FitCost).
//
// A Regressor builds its network at its first Fit and keeps it: a later Fit
// on rows of the same window shape, with the same hyperparameters,
// re-initialises that network in place (nn.Network.Reinit from the
// generator re-seeded) instead of building another, so it trains the bits
// a new network would, in the buffers the last fit grew.
type Regressor struct {
	name     string
	cfg      netConfig
	windowed bool // reads cascaded windows (WindowLen/NumVars metadata)
	minSteps int  // shortest window history the network accepts
	build    func(windowShape, netConfig, *matrix.Rand) *nn.Network
	macs     func(windowShape, netConfig) int

	net    *nn.Network
	win    windowShape
	netCfg netConfig    // the hyperparameters net was built with
	rng    *matrix.Rand // net's generator: its weights' and dropout masks'
}

func newRegressor(name string, hidden int, build func(windowShape, netConfig, *matrix.Rand) *nn.Network, macs func(windowShape, netConfig) int) *Regressor {
	cfg := defaultConfig()
	cfg.Hidden = hidden
	return &Regressor{name: name, cfg: cfg, windowed: true, build: build, macs: macs}
}

// variant names a model with a simple and a deep form.
func variant(deep bool, name string) string {
	if deep {
		return "deep" + name
	}
	return name
}

// NewDNNRegressor returns the paper's standard (IID) deep neural network:
// simple = two hidden layers with dropout, deep = four. It treats rows as
// flat feature vectors and so pairs with flat windows or TS-as-IID rows.
func NewDNNRegressor(deep bool) *Regressor {
	r := newRegressor(variant(deep, "dnn"), 16, func(w windowShape, cfg netConfig, rng *matrix.Rand) *nn.Network {
		return buildDNN(deep, w.channels, cfg, rng)
	}, func(w windowShape, cfg netConfig) int {
		return dnnMACs(deep, w.channels, cfg)
	})
	r.windowed = false
	return r
}

// NewLSTMRegressor returns the paper's temporal LSTM model: simple = one
// LSTM layer plus dropout, deep = four stacked LSTM layers each followed by
// dropout. Both end in a fully-connected linear layer.
func NewLSTMRegressor(deep bool) *Regressor {
	return newRegressor(variant(deep, "lstm"), 12, func(w windowShape, cfg netConfig, rng *matrix.Rand) *nn.Network {
		return buildLSTM(deep, w.seqLen, w.channels, cfg, rng)
	}, func(w windowShape, cfg netConfig) int {
		return lstmMACs(deep, w, cfg)
	})
}

// NewCNNRegressor returns the paper's 1-D convolutional model: a
// convolution, max pooling, a dense ReLU layer and a linear output; the
// deep variant stacks a second convolution-pool stage.
func NewCNNRegressor(deep bool) *Regressor {
	r := newRegressor(variant(deep, "cnn"), 8, func(w windowShape, cfg netConfig, rng *matrix.Rand) *nn.Network {
		return buildCNN(deep, w.seqLen, w.channels, cfg, rng)
	}, func(w windowShape, cfg netConfig) int {
		return cnnMACs(deep, w, cfg)
	})
	r.minSteps = 4 // the first convolution's kernel of 3, plus one step to pool
	return r
}

// NewWaveNetRegressor returns a stack of gated dilated causal convolutions
// (dilations 1, 2, 4) with residual connections — the probabilistic-audio
// architecture the paper adopts for time-series prediction — followed by a
// linear head on the final timestep.
func NewWaveNetRegressor() *Regressor {
	return newRegressor("wavenet", 8, func(w windowShape, cfg netConfig, rng *matrix.Rand) *nn.Network {
		return buildWaveNet(w.seqLen, w.channels, cfg, rng)
	}, func(w windowShape, cfg netConfig) int {
		// Per computed step: the filter and gate convolutions and the 1x1
		// projection.
		return residualStackMACs(w, cfg.Hidden, waveNetDilations, 5*cfg.Hidden*cfg.Hidden)
	})
}

// NewSeriesNetRegressor returns the WaveNet-derived architecture of Section
// IV-C2, requiring no data preprocessing beyond windowing: a 1x1 causal
// convolution lifts the input channels to the block width, four residual
// blocks (dilations 1, 2, 4, 8) each add a 1x1 projection of a ReLU'd
// kernel-2 dilated causal convolution back onto their input, and a linear
// head reads the final timestep. No block has a separate skip output.
func NewSeriesNetRegressor() *Regressor {
	return newRegressor("seriesnet", 8, func(w windowShape, cfg netConfig, rng *matrix.Rand) *nn.Network {
		return buildSeriesNet(w.seqLen, w.channels, cfg, rng)
	}, func(w windowShape, cfg netConfig) int {
		// Per computed step: the dilated convolution and the 1x1 projection.
		return residualStackMACs(w, cfg.Hidden, seriesNetDilations, 3*cfg.Hidden*cfg.Hidden)
	})
}

// Name implements core.Component.
func (r *Regressor) Name() string { return r.name }

// SetParam implements core.Component.
func (r *Regressor) SetParam(key string, v float64) error {
	return r.cfg.setParam(r.name, key, v)
}

// Params implements core.Component.
func (r *Regressor) Params() map[string]float64 { return r.cfg.params() }

// Clone implements core.Estimator.
func (r *Regressor) Clone() core.Estimator {
	return &Regressor{name: r.name, cfg: r.cfg, windowed: r.windowed, minSteps: r.minSteps, build: r.build, macs: r.macs}
}

// FitCost implements core.Estimator: epochs x rows x the multiply-adds of
// one forward pass over a row of the shape in gives the network, counted
// from the layer shapes as the network is built. A shape Fit refuses
// costs 0.
func (r *Regressor) FitCost(in core.Shape) float64 {
	shape := windowShape{1, in.Cols}
	if r.windowed {
		if in.WindowLen < max(r.minSteps, 1) || in.Cols%in.WindowLen != 0 {
			return 0
		}
		shape = windowShape{in.WindowLen, in.Cols / in.WindowLen}
	}
	return float64(r.cfg.Epochs) * float64(in.Rows) * float64(r.macs(shape, r.cfg))
}

// Fit trains a network from its starting weights on ds, discarding any
// earlier fit: the network it already has, re-initialised, when ds has the
// window shape it was built for and no hyperparameter has changed since,
// else one built for ds's row shape.
func (r *Regressor) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("nnmodels: %s requires targets", r.name)
	}
	shape := windowShape{1, ds.NumFeatures()}
	if r.windowed {
		seqLen, channels, err := windowDims(r.name, ds)
		if err != nil {
			return err
		}
		if seqLen < r.minSteps {
			return fmt.Errorf("nnmodels: %s needs history >= %d, got %d", r.name, r.minSteps, seqLen)
		}
		shape = windowShape{seqLen, channels}
	}
	if err := r.startNet(shape); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", r.name, err)
	}
	if err := train(r.net, ds, r.cfg); err != nil {
		return fmt.Errorf("nnmodels: %s fit: %w", r.name, err)
	}
	return nil
}

// startNet puts a network at its starting weights for rows of shape: the
// one r has, re-initialised, if it was built for shape with r's current
// hyperparameters, else a new one. Both draw from r's generator seeded
// with the configured seed, so their weights and masks are the same bits.
func (r *Regressor) startNet(shape windowShape) error {
	if r.rng == nil {
		r.rng = matrix.NewRand(r.cfg.Seed)
	} else {
		r.rng.Seed(r.cfg.Seed)
	}
	if r.net != nil && shape == r.win && r.cfg == r.netCfg {
		return r.net.Reinit(r.rng)
	}
	r.net, r.win, r.netCfg = r.build(shape, r.cfg, r.rng), shape, r.cfg
	return nil
}

// Predict implements core.Estimator. A windowed model's input must have
// the window shape it was fitted on: the network checks only its input
// width, seqLen·channels, so without this a model fitted on 8x2 windows
// would read 4x4 ones as if they were 8x2.
func (r *Regressor) Predict(ds *dataset.Dataset) ([]float64, error) {
	if r.net == nil {
		return nil, fmt.Errorf("nnmodels: %s not fitted", r.name)
	}
	if r.windowed {
		seqLen, channels, err := windowDims(r.name, ds)
		if err != nil {
			return nil, err
		}
		if got := (windowShape{seqLen, channels}); got != r.win {
			return nil, fmt.Errorf("nnmodels: %s was fitted on %dx%d windows (steps x variables), cannot predict on %dx%d",
				r.name, r.win.seqLen, r.win.channels, got.seqLen, got.channels)
		}
	}
	return r.net.Predict(ds.X)
}

// dnnMACs counts buildDNN's multiply-adds per row.
func dnnMACs(deep bool, in int, cfg netConfig) int {
	h, hiddenLayers := cfg.Hidden, 2
	if deep {
		hiddenLayers = 4
	}
	return in*h + (hiddenLayers-1)*h*h + h
}

func buildDNN(deep bool, in int, cfg netConfig, rng *matrix.Rand) *nn.Network {
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

// lstmMACs counts buildLSTM's multiply-adds per row: each layer projects
// every step's input into four gates and, from the second step on (the
// first starts from the zero state), the previous hidden state too.
func lstmMACs(deep bool, w windowShape, cfg netConfig) int {
	h := cfg.Hidden
	layer := func(in int) int { return w.seqLen*in*4*h + (w.seqLen-1)*h*4*h }
	n := layer(w.channels)
	if deep {
		n += 3 * layer(h)
	}
	return n + h
}

func buildLSTM(deep bool, seqLen, channels int, cfg netConfig, rng *matrix.Rand) *nn.Network {
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

// cnnMACs counts buildCNN's multiply-adds per row, stage by stage as it
// builds them.
func cnnMACs(deep bool, w windowShape, cfg netConfig) int {
	const kernel = 3
	f := cfg.Hidden
	length := w.seqLen - kernel + 1
	n := length * f * kernel * w.channels
	if length >= 2 {
		length /= 2
	}
	if deep && length >= kernel+1 {
		length -= kernel - 1
		n += length * f * kernel * f
		if length >= 2 {
			length /= 2
		}
	}
	return n + length*f*cfg.Hidden + cfg.Hidden
}

func buildCNN(deep bool, seqLen, channels int, cfg netConfig, rng *matrix.Rand) *nn.Network {
	const kernel = 3
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

// The dilations of WaveNet's and SeriesNet's residual blocks, first to last.
var (
	waveNetDilations   = []int{1, 2, 4}
	seriesNetDilations = []int{1, 2, 4, 8}
)

// residualStackMACs counts the multiply-adds per row of a 1x1 input
// convolution, kernel-2 dilated causal blocks at dilations of perStep each
// per step they compute, and a dense head on the last step. A network
// computes only the steps the layers after it read (nn's narrowing): the
// last block the last step, and each block before it the steps the next
// reads, each one and the step a dilation earlier.
func residualStackMACs(w windowShape, f int, dilations []int, perStep int) int {
	read, next := make([]bool, w.seqLen), make([]bool, w.seqLen)
	read[w.seqLen-1] = true
	n := f // the head
	for i := len(dilations) - 1; i >= 0; i-- {
		clear(next)
		for t, r := range read {
			if r {
				n += perStep
				next[t] = true
				if t >= dilations[i] {
					next[t-dilations[i]] = true
				}
			}
		}
		read, next = next, read
	}
	for _, r := range read {
		if r {
			n += w.channels * f
		}
	}
	return n
}

func buildWaveNet(seqLen, channels int, cfg netConfig, rng *matrix.Rand) *nn.Network {
	f := cfg.Hidden
	layers := []nn.Layer{
		// 1x1 causal conv lifts the input channels to the block width.
		nn.NewConv1D(seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range waveNetDilations {
		layers = append(layers, nn.NewGatedResidualBlock(seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestep(seqLen, f), nn.NewDense(f, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}

func buildSeriesNet(seqLen, channels int, cfg netConfig, rng *matrix.Rand) *nn.Network {
	f := cfg.Hidden
	layers := []nn.Layer{
		nn.NewConv1D(seqLen, channels, f, 1, 1, true, rng),
	}
	for _, dilation := range seriesNetDilations {
		layers = append(layers, nn.NewResidualConvBlock(seqLen, f, 2, dilation, rng))
	}
	layers = append(layers, nn.NewLastTimestep(seqLen, f), nn.NewDense(f, 1, rng))
	return nn.NewNetwork(nn.NewAdam(cfg.LR), layers...)
}
