package mlmodels

import (
	"fmt"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// ZeroModel is the paper's baseline statistical model: it "outputs the
// previous timestamp's ground truth as the next timestamp's prediction".
// It consumes the TS-as-is view (Figure 10), where row i holds the raw
// variable vector at time i and Y[i] is the target Horizon steps ahead, so
// the prediction for row i is simply the target variable's current value.
type ZeroModel struct {
	Target int // target variable column (default 0)

	width int // the fitted dataset's features; 0 = not fitted
}

// NewZeroModel returns the persistence baseline for the given target column.
func NewZeroModel(target int) *ZeroModel { return &ZeroModel{Target: target} }

// Name implements core.Component.
func (z *ZeroModel) Name() string { return "zeromodel" }

// SetParam implements core.Component; "target", a whole number >= 0, is
// supported.
func (z *ZeroModel) SetParam(key string, v float64) error {
	if key == "target" {
		return setWhole(&z.Target, z.Name(), key, v, 0)
	}
	return errUnknownParam(z.Name(), key)
}

// Params implements core.Component.
func (z *ZeroModel) Params() map[string]float64 {
	return map[string]float64{"target": float64(z.Target)}
}

// Clone implements core.Estimator.
func (z *ZeroModel) Clone() core.Estimator { return &ZeroModel{Target: z.Target} }

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (z *ZeroModel) FitCost(core.Shape) float64 { return 0 }

// Fit validates the target column; the model has no learned state.
func (z *ZeroModel) Fit(ds *dataset.Dataset) error {
	if z.Target < 0 || z.Target >= ds.NumFeatures() {
		return fmt.Errorf("mlmodels: %s target %d out of range for %d vars", z.Name(), z.Target, ds.NumFeatures())
	}
	z.width = ds.NumFeatures()
	return nil
}

// Predict returns the current value of the target variable for every row.
func (z *ZeroModel) Predict(ds *dataset.Dataset) ([]float64, error) {
	if z.width == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, z.Name())
	}
	if err := checkWidth(z.Name(), z.width, ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		out[i] = ds.X.At(i, z.Target)
	}
	return out, nil
}

// ARModel is an autoregressive model of order P on the target variable,
// standing in for the ARIMA entry in the paper's statistical-model family
// (which the authors themselves left out "due to complexity in adding the
// time series prediction pipeline"). It consumes the TS-as-is view: rows
// must be in time order. Coefficients are fitted by least squares on lagged
// targets; predictions for rows with insufficient in-sample history fall
// back to persistence.
type ARModel struct {
	P      int // autoregressive order (default 3)
	Target int // target variable column

	coef      []float64 // lag coefficients, coef[0] = lag-1
	intercept float64
	width     int // the fitted dataset's features; 0 = not fitted
}

// NewARModel returns an unfitted AR(p) model for the target column.
func NewARModel(p, target int) *ARModel { return &ARModel{P: p, Target: target} }

// Name implements core.Component.
func (a *ARModel) Name() string { return "armodel" }

// SetParam implements core.Component; "p", a whole number >= 1, and
// "target", one >= 0, are supported.
func (a *ARModel) SetParam(key string, v float64) error {
	switch key {
	case "p":
		return setWhole(&a.P, a.Name(), key, v, 1)
	case "target":
		return setWhole(&a.Target, a.Name(), key, v, 0)
	}
	return errUnknownParam(a.Name(), key)
}

// Params implements core.Component.
func (a *ARModel) Params() map[string]float64 {
	return map[string]float64{"p": float64(a.P), "target": float64(a.Target)}
}

// Clone implements core.Estimator.
func (a *ARModel) Clone() core.Estimator { return &ARModel{P: a.P, Target: a.Target} }

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (a *ARModel) FitCost(core.Shape) float64 { return 0 }

// Fit regresses Y on the last P values of the target variable. Because the
// TS-as-is view provides Y[i] = target at time i+h, this learns the h-step
// mapping directly.
func (a *ARModel) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", a.Name())
	}
	if a.Target < 0 || a.Target >= ds.NumFeatures() {
		return fmt.Errorf("mlmodels: %s target %d out of range for %d vars", a.Name(), a.Target, ds.NumFeatures())
	}
	if a.P < 1 {
		a.P = 3
	}
	n := ds.NumSamples()
	rows := n - a.P + 1
	if rows < a.P+2 {
		return fmt.Errorf("mlmodels: %s order %d needs more than %d samples", a.Name(), a.P, n)
	}
	// Row i of the design matrix holds target values at times
	// i+P-1, i+P-2, ..., i (most recent lag first) predicting Y[i+P-1].
	x := matrix.New(rows, a.P+1)
	b := make([]float64, rows)
	for r := 0; r < rows; r++ {
		t := r + a.P - 1
		row := x.Row(r)
		row[0] = 1
		for lag := 0; lag < a.P; lag++ {
			row[lag+1] = ds.X.At(t-lag, a.Target)
		}
		b[r] = ds.Y[t]
	}
	sol, err := matrix.SolveLeastSquares(x, b)
	if err != nil {
		return fmt.Errorf("mlmodels: %s solve: %w", a.Name(), err)
	}
	a.intercept = sol[0]
	a.coef = sol[1:]
	a.width = ds.NumFeatures()
	return nil
}

// Predict applies the AR coefficients over the in-sample history of the
// provided (time-ordered) rows. The first P-1 rows use persistence.
func (a *ARModel) Predict(ds *dataset.Dataset) ([]float64, error) {
	if a.width == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, a.Name())
	}
	if err := checkWidth(a.Name(), a.width, ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for t := range out {
		if t < a.P-1 {
			out[t] = ds.X.At(t, a.Target) // persistence fallback
			continue
		}
		s := a.intercept
		for lag := 0; lag < a.P; lag++ {
			s += float64(a.coef[lag] * ds.X.At(t-lag, a.Target))
		}
		out[t] = s
	}
	return out, nil
}
