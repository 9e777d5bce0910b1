package mlmodels

import (
	"fmt"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// LogisticRegression is binary logistic regression trained by full-batch
// gradient descent with optional L2 regularization. Labels must be 0/1.
// Predict returns hard labels; PredictProba returns P(y=1).
type LogisticRegression struct {
	LearningRate float64 // step size (default 0.1)
	Epochs       int     // gradient steps (default 500)
	Alpha        float64 // L2 penalty (default 0)

	coef      []float64
	intercept float64
	fitted    bool
}

// NewLogisticRegression returns an unfitted binary classifier.
func NewLogisticRegression() *LogisticRegression {
	return &LogisticRegression{LearningRate: 0.1, Epochs: 500}
}

// Name implements core.Component.
func (l *LogisticRegression) Name() string { return "logisticregression" }

// SetParam implements core.Component; "lr", "epochs" and "alpha" are
// supported.
func (l *LogisticRegression) SetParam(key string, v float64) error {
	switch key {
	case "lr":
		l.LearningRate = v
	case "epochs":
		l.Epochs = int(v)
	case "alpha":
		l.Alpha = v
	default:
		return errUnknownParam(l.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (l *LogisticRegression) Params() map[string]float64 {
	return map[string]float64{"lr": l.LearningRate, "epochs": float64(l.Epochs), "alpha": l.Alpha}
}

// Clone implements core.Estimator.
func (l *LogisticRegression) Clone() core.Estimator {
	return &LogisticRegression{LearningRate: l.LearningRate, Epochs: l.Epochs, Alpha: l.Alpha}
}

// Fit runs gradient descent on the logistic loss.
func (l *LogisticRegression) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", l.Name())
	}
	for i, y := range ds.Y {
		if y != 0 && y != 1 {
			return fmt.Errorf("mlmodels: %s requires 0/1 labels, got %v at row %d", l.Name(), y, i)
		}
	}
	n, p := ds.NumSamples(), ds.NumFeatures()
	if n == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", l.Name())
	}
	if l.LearningRate <= 0 {
		l.LearningRate = 0.1
	}
	if l.Epochs <= 0 {
		l.Epochs = 500
	}
	l.coef = make([]float64, p)
	l.intercept = 0
	grad := make([]float64, p)
	prob := make([]float64, n)
	for epoch := 0; epoch < l.Epochs; epoch++ {
		l.proba(prob, ds)
		clear(grad)
		gIntercept := 0.0
		for i, pr := range prob {
			err := pr - ds.Y[i]
			gIntercept += err
			for j, v := range ds.X.Row(i) {
				grad[j] += err * v
			}
		}
		inv := 1.0 / float64(n)
		l.intercept -= l.LearningRate * gIntercept * inv
		for j := range l.coef {
			l.coef[j] -= l.LearningRate * (grad[j]*inv + l.Alpha*l.coef[j])
		}
	}
	l.fitted = true
	return nil
}

// PredictProba returns P(y=1) per row.
func (l *LogisticRegression) PredictProba(ds *dataset.Dataset) ([]float64, error) {
	if !l.fitted {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, l.Name())
	}
	if ds.NumFeatures() != len(l.coef) {
		return nil, fmt.Errorf("mlmodels: %s fitted with %d features, got %d", l.Name(), len(l.coef), ds.NumFeatures())
	}
	out := make([]float64, ds.NumSamples())
	l.proba(out, ds)
	return out, nil
}

// proba sets out[i] = P(y=1) for row i under the current coefficients: every
// row's z first, then one matrix.Sigmoid over them all.
func (l *LogisticRegression) proba(out []float64, ds *dataset.Dataset) {
	for i := range out {
		z := l.intercept
		for j, v := range ds.X.Row(i) {
			z += v * l.coef[j]
		}
		out[i] = z
	}
	matrix.Sigmoid(out, out)
}

// Predict thresholds PredictProba at 0.5.
func (l *LogisticRegression) Predict(ds *dataset.Dataset) ([]float64, error) {
	probs, err := l.PredictProba(ds)
	if err != nil {
		return nil, err
	}
	for i, p := range probs {
		if p >= 0.5 {
			probs[i] = 1
		} else {
			probs[i] = 0
		}
	}
	return probs, nil
}

// Coefficients returns the fitted weights and intercept for RCA reporting.
func (l *LogisticRegression) Coefficients() (coef []float64, intercept float64, err error) {
	if !l.fitted {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFitted, l.Name())
	}
	return append([]float64(nil), l.coef...), l.intercept, nil
}
