// Package tswindow implements the paper's custom time-series data
// preprocessors (Section IV-C4, Figures 7-10). Input datasets are
// multivariate series — X has one row per timestamp and one column per
// variable (Figure 6) — and the transformers reshape them into the layout
// each estimator family ingests:
//
//   - CascadedWindows (Fig 7): overlapping history windows of shape p x v,
//     order preserved, for the temporal networks (LSTM/CNN/WaveNet).
//   - FlatWindowing (Fig 8): the same windows flattened to 1 x p*v for
//     standard DNNs — history retained, ordering semantics dropped.
//   - TSAsIID (Fig 9): each timestamp as an independent sample, no history.
//   - TSAsIs (Fig 10): pass-through for models that consume raw series
//     (Zero model, AR).
//
// Every transformer also derives the prediction target: the value of the
// target variable Horizon steps after the window, so Y never overlaps the
// inputs it is predicted from.
package tswindow

import (
	"fmt"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

func validateSeries(ds *dataset.Dataset, target int) error {
	if ds.X.Rows() == 0 {
		return fmt.Errorf("tswindow: empty series")
	}
	if target < 0 || target >= ds.X.Cols() {
		return fmt.Errorf("tswindow: target variable %d out of range for %d variables", target, ds.X.Cols())
	}
	return nil
}

// CascadedWindows converts a T x v series into L = T - History - Horizon + 1
// windows; window i holds rows i .. i+History-1 flattened time-major into a
// single row of length History*v, and Y[i] is the target variable at time
// i + History + Horizon - 1. The output dataset carries WindowLen = History
// and NumVars = v so temporal estimators can reinterpret rows as 2-D
// windows without copying.
type CascadedWindows struct {
	History int // window length p (>= 1)
	Horizon int // steps ahead to predict (>= 1)
	Target  int // target variable column
}

// NewCascadedWindows returns a window transformer with history p predicting
// the target variable horizon steps ahead.
func NewCascadedWindows(history, horizon, target int) *CascadedWindows {
	return &CascadedWindows{History: history, Horizon: horizon, Target: target}
}

// Name implements core.Component.
func (c *CascadedWindows) Name() string { return "cascadedwindows" }

// SetParam implements core.Component; "history", "horizon" and "target" are
// supported.
func (c *CascadedWindows) SetParam(key string, v float64) error {
	switch key {
	case "history":
		c.History = int(v)
	case "horizon":
		c.Horizon = int(v)
	case "target":
		c.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", c.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (c *CascadedWindows) Params() map[string]float64 {
	return map[string]float64{
		"history": float64(c.History),
		"horizon": float64(c.Horizon),
		"target":  float64(c.Target),
	}
}

// Clone implements core.Transformer.
func (c *CascadedWindows) Clone() core.Transformer {
	cp := *c
	return &cp
}

// Fit is stateless; windowing depends only on configuration.
func (c *CascadedWindows) Fit(*dataset.Dataset) error { return nil }

// Transform builds the cascaded windows.
func (c *CascadedWindows) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	x, y, v, err := buildWindows(ds, c.History, c.Horizon, c.Target)
	if err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", c.Name(), err)
	}
	out := &dataset.Dataset{X: x, Y: y, TargetName: ds.TargetName, WindowLen: c.History, NumVars: v}
	out.YScale, out.YOffset = ds.ColAffine(c.Target)
	return out, nil
}

// FlatWindowing produces the same L windows as CascadedWindows but marks
// the output as flat transactional data (WindowLen = 0), matching Figure 8:
// temporal history is present in the features, ordering semantics are not.
type FlatWindowing struct {
	History int
	Horizon int
	Target  int
}

// NewFlatWindowing returns a flattening window transformer.
func NewFlatWindowing(history, horizon, target int) *FlatWindowing {
	return &FlatWindowing{History: history, Horizon: horizon, Target: target}
}

// Name implements core.Component.
func (f *FlatWindowing) Name() string { return "flatwindowing" }

// SetParam implements core.Component.
func (f *FlatWindowing) SetParam(key string, v float64) error {
	switch key {
	case "history":
		f.History = int(v)
	case "horizon":
		f.Horizon = int(v)
	case "target":
		f.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", f.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (f *FlatWindowing) Params() map[string]float64 {
	return map[string]float64{
		"history": float64(f.History),
		"horizon": float64(f.Horizon),
		"target":  float64(f.Target),
	}
}

// Clone implements core.Transformer.
func (f *FlatWindowing) Clone() core.Transformer {
	cp := *f
	return &cp
}

// Fit is stateless.
func (f *FlatWindowing) Fit(*dataset.Dataset) error { return nil }

// Transform builds flattened windows.
func (f *FlatWindowing) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	x, y, _, err := buildWindows(ds, f.History, f.Horizon, f.Target)
	if err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", f.Name(), err)
	}
	// WindowLen stays 0: downstream estimators treat rows as flat vectors.
	out := &dataset.Dataset{X: x, Y: y, TargetName: ds.TargetName}
	out.YScale, out.YOffset = ds.ColAffine(f.Target)
	return out, nil
}

// TSAsIID exposes each timestamp as an independent sample (Figure 9): X row
// i is the raw variable vector at time i, Y[i] the target variable Horizon
// steps later. No history is available to the model.
type TSAsIID struct {
	Horizon int
	Target  int
}

// NewTSAsIID returns the transactional view transformer.
func NewTSAsIID(horizon, target int) *TSAsIID { return &TSAsIID{Horizon: horizon, Target: target} }

// Name implements core.Component.
func (t *TSAsIID) Name() string { return "tsasiid" }

// SetParam implements core.Component.
func (t *TSAsIID) SetParam(key string, v float64) error {
	switch key {
	case "horizon":
		t.Horizon = int(v)
	case "target":
		t.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", t.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (t *TSAsIID) Params() map[string]float64 {
	return map[string]float64{"horizon": float64(t.Horizon), "target": float64(t.Target)}
}

// Clone implements core.Transformer.
func (t *TSAsIID) Clone() core.Transformer {
	cp := *t
	return &cp
}

// Fit is stateless.
func (t *TSAsIID) Fit(*dataset.Dataset) error { return nil }

// Transform builds the IID view.
func (t *TSAsIID) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if t.Horizon < 1 {
		return nil, fmt.Errorf("tswindow: %s: horizon %d < 1", t.Name(), t.Horizon)
	}
	if err := validateSeries(ds, t.Target); err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", t.Name(), err)
	}
	n := ds.X.Rows() - t.Horizon
	if n < 1 {
		return nil, fmt.Errorf("tswindow: %s: series of %d too short for horizon %d", t.Name(), ds.X.Rows(), t.Horizon)
	}
	x := ds.X.SliceRows(0, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = ds.X.At(i+t.Horizon, t.Target)
	}
	out := &dataset.Dataset{X: x, Y: y, ColNames: ds.ColNames, TargetName: ds.TargetName,
		ColScale: ds.ColScale, ColOffset: ds.ColOffset}
	out.YScale, out.YOffset = ds.ColAffine(t.Target)
	return out, nil
}

// TSAsIs passes the series through for estimators that consume raw ordered
// series (Figure 10: Zero model, AR). The output keeps one row per usable
// timestamp with Y[i] the target Horizon steps ahead; rows remain in time
// order and NumVars is set so series-native models know the layout.
type TSAsIs struct {
	Horizon int
	Target  int
}

// NewTSAsIs returns the pass-through series transformer.
func NewTSAsIs(horizon, target int) *TSAsIs { return &TSAsIs{Horizon: horizon, Target: target} }

// Name implements core.Component.
func (t *TSAsIs) Name() string { return "tsasis" }

// SetParam implements core.Component.
func (t *TSAsIs) SetParam(key string, v float64) error {
	switch key {
	case "horizon":
		t.Horizon = int(v)
	case "target":
		t.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", t.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (t *TSAsIs) Params() map[string]float64 {
	return map[string]float64{"horizon": float64(t.Horizon), "target": float64(t.Target)}
}

// Clone implements core.Transformer.
func (t *TSAsIs) Clone() core.Transformer {
	cp := *t
	return &cp
}

// Fit is stateless.
func (t *TSAsIs) Fit(*dataset.Dataset) error { return nil }

// Transform keeps the raw series, deriving the h-step-ahead target.
func (t *TSAsIs) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if t.Horizon < 1 {
		return nil, fmt.Errorf("tswindow: %s: horizon %d < 1", t.Name(), t.Horizon)
	}
	if err := validateSeries(ds, t.Target); err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", t.Name(), err)
	}
	n := ds.X.Rows() - t.Horizon
	if n < 1 {
		return nil, fmt.Errorf("tswindow: %s: series of %d too short for horizon %d", t.Name(), ds.X.Rows(), t.Horizon)
	}
	x := ds.X.SliceRows(0, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = ds.X.At(i+t.Horizon, t.Target)
	}
	out := &dataset.Dataset{X: x, Y: y, ColNames: ds.ColNames, TargetName: ds.TargetName, NumVars: ds.X.Cols(),
		ColScale: ds.ColScale, ColOffset: ds.ColOffset}
	out.YScale, out.YOffset = ds.ColAffine(t.Target)
	return out, nil
}

// buildWindows materialises the L x (history*v) window matrix and targets in
// one backing allocation (the layout the F7 ablation compares against
// per-window allocation).
func buildWindows(ds *dataset.Dataset, history, horizon, target int) (*matrix.Matrix, []float64, int, error) {
	if history < 1 {
		return nil, nil, 0, fmt.Errorf("history %d < 1", history)
	}
	if horizon < 1 {
		return nil, nil, 0, fmt.Errorf("horizon %d < 1", horizon)
	}
	if err := validateSeries(ds, target); err != nil {
		return nil, nil, 0, err
	}
	v := ds.X.Cols()
	total := ds.X.Rows()
	l := total - history - horizon + 1
	if l < 1 {
		return nil, nil, 0, fmt.Errorf("series of %d too short for history %d + horizon %d", total, history, horizon)
	}
	x := matrix.New(l, history*v)
	y := make([]float64, l)
	for i := 0; i < l; i++ {
		dst := x.Row(i)
		for tIdx := 0; tIdx < history; tIdx++ {
			copy(dst[tIdx*v:(tIdx+1)*v], ds.X.Row(i+tIdx))
		}
		y[i] = ds.X.At(i+history+horizon-1, target)
	}
	return x, y, v, nil
}
