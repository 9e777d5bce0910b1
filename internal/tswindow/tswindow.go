// Package tswindow implements the paper's custom time-series data
// preprocessors (Section IV-C4, Figures 7-10). Input datasets are
// multivariate series — X has one row per timestamp and one column per
// variable (Figure 6) — and the transformers reshape them into the layout
// each estimator family ingests. Windows covers the two windowed layouts
// and View the two history-free ones; a constructor picks the layout:
//
//   - NewCascadedWindows (Fig 7): overlapping history windows of shape
//     p x v, order preserved, for the temporal networks (LSTM/CNN/WaveNet).
//   - NewFlatWindowing (Fig 8): the same windows flattened to 1 x p*v for
//     standard DNNs — history retained, ordering semantics dropped.
//   - NewTSAsIID (Fig 9): each timestamp as an independent sample, no
//     history.
//   - NewTSAsIs (Fig 10): pass-through for models that consume raw series
//     (Zero model, AR).
//
// Every transformer also derives the prediction target: the value of the
// target variable Horizon steps after the window, so Y never overlaps the
// inputs it is predicted from. Windows at Horizon 0 take it from the
// series' own Y instead: labels recorded beside the readings, such as a
// failure log, at each window's last timestamp.
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

// Windows converts a T x v series into L = T - History - Horizon + 1
// windows; window i holds rows i .. i+History-1 flattened time-major into a
// single row of length History*v, and Y[i] is the target variable at time
// i + History + Horizon - 1 — at Horizon 0, the series' Y there, since the
// target variable at the window's own last row is one of its inputs.
// Cascaded windows (Fig 7) carry WindowLen = History and NumVars = v so
// temporal estimators can reinterpret rows as 2-D windows without
// copying; flat windows (Fig 8) leave both unset, so downstream
// estimators treat rows as flat vectors: temporal history is present in
// the features, ordering semantics are not.
type Windows struct {
	History int // window length p (>= 1)
	Horizon int // steps ahead to predict (>= 1), or 0 for the series' Y
	Target  int // target variable column

	name     string
	cascaded bool
}

// NewCascadedWindows returns a window transformer with history p predicting
// the target variable horizon steps ahead.
func NewCascadedWindows(history, horizon, target int) *Windows {
	return &Windows{History: history, Horizon: horizon, Target: target, name: "cascadedwindows", cascaded: true}
}

// NewFlatWindowing returns a flattening window transformer.
func NewFlatWindowing(history, horizon, target int) *Windows {
	return &Windows{History: history, Horizon: horizon, Target: target, name: "flatwindowing"}
}

// Name implements core.Component.
func (w *Windows) Name() string { return w.name }

// SetParam implements core.Component; "history", "horizon" and "target" are
// supported.
func (w *Windows) SetParam(key string, v float64) error {
	switch key {
	case "history":
		w.History = int(v)
	case "horizon":
		w.Horizon = int(v)
	case "target":
		w.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", w.name, key)
	}
	return nil
}

// Params implements core.Component.
func (w *Windows) Params() map[string]float64 {
	return map[string]float64{
		"history": float64(w.History),
		"horizon": float64(w.Horizon),
		"target":  float64(w.Target),
	}
}

// Clone implements core.Transformer.
func (w *Windows) Clone() core.Transformer {
	cp := *w
	return &cp
}

// OutShape implements core.Transformer: Rows - History - Horizon + 1
// windows of History rows each, cascaded (WindowLen History) or flat.
func (w *Windows) OutShape(in core.Shape) core.Shape {
	out := core.Shape{Rows: max(in.Rows-w.History-w.Horizon+1, 0), Cols: w.History * in.Cols}
	if w.cascaded {
		out.WindowLen = w.History
	}
	return out
}

// Fit is stateless; windowing depends only on configuration.
func (w *Windows) Fit(*dataset.Dataset) error { return nil }

// Transform builds the windows.
func (w *Windows) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	x, y, v, err := buildWindows(ds, w.History, w.Horizon, w.Target)
	if err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", w.name, err)
	}
	out := &dataset.Dataset{X: x, Y: y, TargetName: ds.TargetName}
	if w.cascaded {
		out.WindowLen, out.NumVars = w.History, v
	}
	if w.Horizon == 0 {
		out.YScale, out.YOffset = ds.YScale, ds.YOffset
	} else {
		out.YScale, out.YOffset = ds.ColAffine(w.Target)
	}
	return out, nil
}

// View keeps one row per usable timestamp, with Y[i] the target variable
// Horizon steps later and no history in the features. TS-as-IID (Fig 9)
// exposes each row as an independent sample; TS-as-is (Fig 10) passes the
// series through for estimators that consume raw ordered series (Zero
// model, AR): rows remain in time order and NumVars is set so series-native
// models know the layout.
type View struct {
	Horizon int
	Target  int

	name string
	asIs bool
}

// NewTSAsIID returns the transactional view transformer.
func NewTSAsIID(horizon, target int) *View {
	return &View{Horizon: horizon, Target: target, name: "tsasiid"}
}

// NewTSAsIs returns the pass-through series transformer.
func NewTSAsIs(horizon, target int) *View {
	return &View{Horizon: horizon, Target: target, name: "tsasis", asIs: true}
}

// Name implements core.Component.
func (t *View) Name() string { return t.name }

// SetParam implements core.Component; "horizon" and "target" are supported.
func (t *View) SetParam(key string, v float64) error {
	switch key {
	case "horizon":
		t.Horizon = int(v)
	case "target":
		t.Target = int(v)
	default:
		return fmt.Errorf("tswindow: %s has no parameter %q", t.name, key)
	}
	return nil
}

// Params implements core.Component.
func (t *View) Params() map[string]float64 {
	return map[string]float64{"horizon": float64(t.Horizon), "target": float64(t.Target)}
}

// Clone implements core.Transformer.
func (t *View) Clone() core.Transformer {
	cp := *t
	return &cp
}

// OutShape implements core.Transformer: the series' rows but the last
// Horizon, one step each.
func (t *View) OutShape(in core.Shape) core.Shape {
	return core.Shape{Rows: max(in.Rows-t.Horizon, 0), Cols: in.Cols}
}

// Fit is stateless.
func (t *View) Fit(*dataset.Dataset) error { return nil }

// Transform keeps the series' rows, deriving the h-step-ahead target.
func (t *View) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if t.Horizon < 1 {
		return nil, fmt.Errorf("tswindow: %s: horizon %d < 1", t.name, t.Horizon)
	}
	if err := validateSeries(ds, t.Target); err != nil {
		return nil, fmt.Errorf("tswindow: %s: %w", t.name, err)
	}
	n := ds.X.Rows() - t.Horizon
	if n < 1 {
		return nil, fmt.Errorf("tswindow: %s: series of %d too short for horizon %d", t.name, ds.X.Rows(), t.Horizon)
	}
	x := ds.X.SliceRows(0, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = ds.X.At(i+t.Horizon, t.Target)
	}
	out := &dataset.Dataset{X: x, Y: y, ColNames: ds.ColNames, TargetName: ds.TargetName,
		ColScale: ds.ColScale, ColOffset: ds.ColOffset}
	if t.asIs {
		out.NumVars = ds.X.Cols()
	}
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
	if horizon < 0 || horizon == 0 && len(ds.Y) != ds.X.Rows() {
		return nil, nil, 0, fmt.Errorf("horizon %d: want >= 1, or 0 on a series with a Y per row", horizon)
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
		if horizon == 0 {
			y[i] = ds.Y[i+history-1]
		} else {
			y[i] = ds.X.At(i+history+horizon-1, target)
		}
	}
	return x, y, v, nil
}
