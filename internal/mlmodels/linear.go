// Package mlmodels implements the classic estimators the paper's graphs
// draw on (Table I, Figure 3): linear and ridge regression, CART decision
// trees, random forests, k-nearest-neighbours, logistic regression and
// k-means, plus the statistical time-series models of Section IV-C1 (the
// Zero baseline and an AR(p) model standing in for ARIMA, which the paper
// itself omitted "due to complexity").
//
// Every type satisfies core.Estimator.
//
// Every product that meets an add is written float64(a*b), so no compiler
// fuses the two into one rounding (arm64 would): a fit or a prediction
// gives the same bits on every architecture.
package mlmodels

import (
	"errors"
	"fmt"
	"math"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// ErrNotFitted is returned when Predict is called before Fit.
var ErrNotFitted = errors.New("mlmodels: model not fitted")

func errUnknownParam(model, key string) error {
	return fmt.Errorf("mlmodels: %s has no parameter %q", model, key)
}

// setWhole sets *dst to v, a count or an index, if v is a whole number of
// at least least, and refuses it naming model and key otherwise. A value
// Fit would not honour as given (a default in place of 0, 2 for 2.5) would
// still render into the spec, and so into the DARR key, of a unit that
// fitted something else.
func setWhole(dst *int, model, key string, v float64, least int) error {
	if !(v >= float64(least) && v <= math.MaxInt32 && v == float64(int(v))) {
		return fmt.Errorf("mlmodels: %s %s %v is not a whole number >= %d", model, key, v, least)
	}
	*dst = int(v)
	return nil
}

// checkWidth refuses a dataset whose width is not the fitted one's: the
// model would read the wrong cells, or past a row's end.
func checkWidth(model string, fitted int, ds *dataset.Dataset) error {
	if got := ds.NumFeatures(); got != fitted {
		return fmt.Errorf("mlmodels: %s fitted with %d features, got %d", model, fitted, got)
	}
	return nil
}

// LinearRegression is ordinary least squares with an intercept, solved via
// Householder QR. Setting Alpha > 0 adds L2 (ridge) regularization using
// the augmented-rows formulation.
type LinearRegression struct {
	Alpha float64 // L2 penalty; 0 = OLS

	coef      []float64 // feature coefficients
	intercept float64
	fitted    bool
}

// NewLinearRegression returns an unfitted OLS model.
func NewLinearRegression() *LinearRegression { return &LinearRegression{} }

// Name implements core.Component.
func (l *LinearRegression) Name() string {
	if l.Alpha > 0 {
		return "ridge"
	}
	return "linearregression"
}

// SetParam implements core.Component; "alpha" is supported.
func (l *LinearRegression) SetParam(key string, v float64) error {
	if key == "alpha" {
		l.Alpha = v
		return nil
	}
	return errUnknownParam(l.Name(), key)
}

// Params implements core.Component.
func (l *LinearRegression) Params() map[string]float64 {
	return map[string]float64{"alpha": l.Alpha}
}

// Clone implements core.Estimator.
func (l *LinearRegression) Clone() core.Estimator { return &LinearRegression{Alpha: l.Alpha} }

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (l *LinearRegression) FitCost(core.Shape) float64 { return 0 }

// Fit solves min ||[1 X] b - y||^2 (+ alpha ||b_features||^2).
func (l *LinearRegression) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", l.Name())
	}
	n, p := ds.NumSamples(), ds.NumFeatures()
	rows := n
	if l.Alpha > 0 {
		rows += p
	}
	if rows < p+1 {
		return fmt.Errorf("mlmodels: %s needs >= %d samples for %d features, got %d", l.Name(), p+1, p, n)
	}
	a := matrix.New(rows, p+1)
	b := make([]float64, rows)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		row[0] = 1
		copy(row[1:], ds.X.Row(i))
		b[i] = ds.Y[i]
	}
	if l.Alpha > 0 {
		// Augmented rows sqrt(alpha)*e_j penalize feature coefficients
		// (not the intercept).
		s := math.Sqrt(l.Alpha)
		for j := 0; j < p; j++ {
			a.Set(n+j, j+1, s)
		}
	}
	x, err := matrix.SolveLeastSquares(a, b)
	if err != nil {
		return fmt.Errorf("mlmodels: %s solve: %w", l.Name(), err)
	}
	l.intercept = x[0]
	l.coef = x[1:]
	l.fitted = true
	return nil
}

// Predict returns X*coef + intercept.
func (l *LinearRegression) Predict(ds *dataset.Dataset) ([]float64, error) {
	if !l.fitted {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, l.Name())
	}
	if err := checkWidth(l.Name(), len(l.coef), ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		s := l.intercept
		for j, v := range ds.X.Row(i) {
			s += float64(v * l.coef[j])
		}
		out[i] = s
	}
	return out, nil
}

// Coefficients returns the fitted feature coefficients and intercept, used
// by the RCA solution template for sensitivity analysis.
func (l *LinearRegression) Coefficients() (coef []float64, intercept float64, err error) {
	if !l.fitted {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFitted, l.Name())
	}
	return append([]float64(nil), l.coef...), l.intercept, nil
}
