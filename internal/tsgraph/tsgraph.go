// Package tsgraph assembles the paper's Time Series Prediction pipeline
// graph (Section IV-D, Figure 11, Table II): a Transformer-Estimator Graph
// with three stages — Data Scaling, Data Preprocessing, Modelling — whose
// preprocessing-to-model edges are selectively wired:
//
//	CascadedWindows -> temporal DNNs (LSTM, deep LSTM, CNN, deep CNN, WaveNet, SeriesNet)
//	FlatWindowing   -> standard DNNs (simple, deep)
//	TS-as-IID       -> standard DNNs (simple, deep)
//	TS-as-is        -> statistical models (Zero, AR)
package tsgraph

import (
	"fmt"

	"coda/internal/core"
	"coda/internal/mlmodels"
	"coda/internal/nnmodels"
	"coda/internal/preprocess"
	"coda/internal/tswindow"
)

// Config sizes the graph's windowing and training knobs.
type Config struct {
	History int // history window p (default 8)
	Horizon int // prediction horizon (default 1)
	Target  int // target variable column (default 0)
	Epochs  int // network training epochs (default 30)
	Seed    int64

	// Slim drops the deep network variants and WaveNet/SeriesNet,
	// keeping one model per family — useful for fast experiments.
	Slim bool
}

func (c *Config) setDefaults() {
	if c.History <= 0 {
		c.History = 8
	}
	if c.Horizon <= 0 {
		c.Horizon = 1
	}
	if c.Epochs <= 0 {
		c.Epochs = 30
	}
}

// New builds the Figure 11 graph. Node names follow the component names:
// scalers {standardscaler, minmaxscaler, robustscaler, noop}, preprocessors
// {cascadedwindows, flatwindowing, tsasiid, tsasis}, models {lstm, deeplstm,
// cnn, deepcnn, wavenet, seriesnet, dnn, deepdnn, zeromodel, armodel}.
func New(cfg Config) (*core.Graph, error) {
	cfg.setDefaults()

	g := core.NewGraph()
	g.AddTransformerStage("data scaling",
		preprocess.NewStandardScaler(),
		preprocess.NewMinMaxScaler(),
		preprocess.NewRobustScaler(),
		preprocess.NewNoOp(),
	)
	g.AddTransformerStage("data preprocessing",
		tswindow.NewCascadedWindows(cfg.History, cfg.Horizon, cfg.Target),
		tswindow.NewFlatWindowing(cfg.History, cfg.Horizon, cfg.Target),
		tswindow.NewTSAsIID(cfg.Horizon, cfg.Target),
		tswindow.NewTSAsIs(cfg.Horizon, cfg.Target),
	)

	mkNet := func(e core.Estimator) core.Estimator {
		if err := e.SetParam("epochs", float64(cfg.Epochs)); err != nil {
			panic(fmt.Sprintf("tsgraph: %s rejects epochs: %v", e.Name(), err))
		}
		if err := e.SetParam("seed", float64(cfg.Seed)); err != nil {
			panic(fmt.Sprintf("tsgraph: %s rejects seed: %v", e.Name(), err))
		}
		return e
	}

	temporal := []core.Estimator{mkNet(nnmodels.NewLSTMRegressor(false)), mkNet(nnmodels.NewCNNRegressor(false))}
	if !cfg.Slim {
		temporal = append(temporal,
			mkNet(nnmodels.NewLSTMRegressor(true)),
			mkNet(nnmodels.NewCNNRegressor(true)),
			mkNet(nnmodels.NewWaveNetRegressor()),
			mkNet(nnmodels.NewSeriesNetRegressor()),
		)
	}
	iid := []core.Estimator{mkNet(nnmodels.NewDNNRegressor(false))}
	if !cfg.Slim {
		iid = append(iid, mkNet(nnmodels.NewDNNRegressor(true)))
	}
	statistical := []core.Estimator{
		mlmodels.NewZeroModel(cfg.Target),
		mlmodels.NewARModel(cfg.History, cfg.Target),
	}

	var models []core.Estimator
	models = append(models, temporal...)
	models = append(models, iid...)
	models = append(models, statistical...)
	g.AddEstimatorStage("modelling", models...)

	// Selective connectivity (Figure 11).
	connect := func(from string, tos []core.Estimator) {
		for _, to := range tos {
			g.Connect(from, to.Name())
		}
	}
	connect("cascadedwindows", temporal)
	connect("flatwindowing", iid)
	connect("tsasiid", iid)
	connect("tsasis", statistical)

	if err := g.Finalize(); err != nil {
		return nil, fmt.Errorf("tsgraph: %w", err)
	}
	return g, nil
}
