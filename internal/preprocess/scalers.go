// Package preprocess implements the feature Transformers from the paper's
// Table I and Figure 3: the data scalers (StandardScaler, MinMaxScaler,
// RobustScaler, NoOp), feature transformation (Covariance centering + PCA)
// and feature selection (SelectKBest), together with the data-quality
// utilities Section III calls for (imputation and outlier filtering).
//
// Every type satisfies core.Transformer structurally; the package does not
// depend on internal/core.
package preprocess

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"coda/internal/core"
	"coda/internal/dataset"
)

// ErrNotFitted is returned when Transform is called before Fit.
var ErrNotFitted = errors.New("preprocess: transformer not fitted")

// errUnknownParam builds a consistent unknown-parameter error.
func errUnknownParam(component, key string) error {
	return fmt.Errorf("preprocess: %s has no parameter %q", component, key)
}

// setAffine records on out the affine map from scaled values back to
// original units, composing the scaler's own map (orig = scaled*scale +
// offset) with whatever affine the input dataset already carried. It keeps
// column names since scalers preserve column identity.
func setAffine(out, in *dataset.Dataset, scale, offset []float64) {
	out.ColNames = in.ColNames
	out.ColScale = make([]float64, len(scale))
	out.ColOffset = make([]float64, len(scale))
	for j := range scale {
		inScale, inOffset := in.ColAffine(j)
		out.ColScale[j] = scale[j] * inScale
		out.ColOffset[j] = offset[j]*inScale + inOffset
	}
}

// StandardScaler standardizes each feature to zero mean and unit variance.
type StandardScaler struct {
	means, stds []float64
}

// NewStandardScaler returns an unfitted StandardScaler.
func NewStandardScaler() *StandardScaler { return &StandardScaler{} }

// Name implements core.Component.
func (s *StandardScaler) Name() string { return "standardscaler" }

// SetParam implements core.Component; the scaler has no parameters.
func (s *StandardScaler) SetParam(key string, _ float64) error {
	return errUnknownParam(s.Name(), key)
}

// Params implements core.Component.
func (s *StandardScaler) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (s *StandardScaler) Clone() core.Transformer { return NewStandardScaler() }

// Fit learns per-column means and standard deviations in one fused pass
// over the data (matrix.ColMeansStds).
func (s *StandardScaler) Fit(ds *dataset.Dataset) error {
	s.means, s.stds = ds.X.ColMeansStds()
	return nil
}

// Transform standardizes columns; zero-variance columns pass through centred.
func (s *StandardScaler) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.means == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, s.Name())
	}
	if ds.X.Cols() != len(s.means) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", s.Name(), len(s.means), ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] -= s.means[j]
			if s.stds[j] > 0 {
				row[j] /= s.stds[j]
			}
		}
	}
	out := ds.WithX(x)
	scale := make([]float64, len(s.stds))
	for j, sd := range s.stds {
		if sd > 0 {
			scale[j] = sd
		} else {
			scale[j] = 1 // zero-variance column was only centred
		}
	}
	setAffine(out, ds, scale, s.means)
	return out, nil
}

// MinMaxScaler rescales each feature into [0, 1] using the fitted min/max.
type MinMaxScaler struct {
	mins, maxs []float64
}

// NewMinMaxScaler returns an unfitted MinMaxScaler.
func NewMinMaxScaler() *MinMaxScaler { return &MinMaxScaler{} }

// Name implements core.Component.
func (s *MinMaxScaler) Name() string { return "minmaxscaler" }

// SetParam implements core.Component; the scaler has no parameters.
func (s *MinMaxScaler) SetParam(key string, _ float64) error {
	return errUnknownParam(s.Name(), key)
}

// Params implements core.Component.
func (s *MinMaxScaler) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (s *MinMaxScaler) Clone() core.Transformer { return NewMinMaxScaler() }

// Fit learns per-column minima and maxima.
func (s *MinMaxScaler) Fit(ds *dataset.Dataset) error {
	s.mins = ds.X.ColMins()
	s.maxs = ds.X.ColMaxs()
	return nil
}

// Transform rescales into [0,1]; constant columns map to 0.
func (s *MinMaxScaler) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.mins == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, s.Name())
	}
	if ds.X.Cols() != len(s.mins) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", s.Name(), len(s.mins), ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			span := s.maxs[j] - s.mins[j]
			row[j] -= s.mins[j]
			if span > 0 {
				row[j] /= span
			} else {
				row[j] = 0
			}
		}
	}
	out := ds.WithX(x)
	scale := make([]float64, len(s.mins))
	for j := range scale {
		if span := s.maxs[j] - s.mins[j]; span > 0 {
			scale[j] = span
		} else {
			scale[j] = 1 // constant column maps to 0; original is offset
		}
	}
	setAffine(out, ds, scale, s.mins)
	return out, nil
}

// RobustScaler centres by the median and scales by the interquartile range,
// making it resilient to the outliers common in industrial sensor data.
type RobustScaler struct {
	medians, iqrs []float64
}

// NewRobustScaler returns an unfitted RobustScaler.
func NewRobustScaler() *RobustScaler { return &RobustScaler{} }

// Name implements core.Component.
func (s *RobustScaler) Name() string { return "robustscaler" }

// SetParam implements core.Component; the scaler has no parameters.
func (s *RobustScaler) SetParam(key string, _ float64) error {
	return errUnknownParam(s.Name(), key)
}

// Params implements core.Component.
func (s *RobustScaler) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (s *RobustScaler) Clone() core.Transformer { return NewRobustScaler() }

// Fit learns per-column medians and interquartile ranges.
func (s *RobustScaler) Fit(ds *dataset.Dataset) error {
	cols := ds.X.Cols()
	s.medians = make([]float64, cols)
	s.iqrs = make([]float64, cols)
	for j := 0; j < cols; j++ {
		col := ds.X.ColCopy(j)
		sort.Float64s(col)
		s.medians[j] = quantileSorted(col, 0.5)
		s.iqrs[j] = quantileSorted(col, 0.75) - quantileSorted(col, 0.25)
	}
	return nil
}

// Transform applies (x - median) / IQR; zero-IQR columns are only centred.
func (s *RobustScaler) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.medians == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, s.Name())
	}
	if ds.X.Cols() != len(s.medians) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", s.Name(), len(s.medians), ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] -= s.medians[j]
			if s.iqrs[j] > 0 {
				row[j] /= s.iqrs[j]
			}
		}
	}
	out := ds.WithX(x)
	scale := make([]float64, len(s.iqrs))
	for j, iqr := range s.iqrs {
		if iqr > 0 {
			scale[j] = iqr
		} else {
			scale[j] = 1 // zero-IQR column was only centred
		}
	}
	setAffine(out, ds, scale, s.medians)
	return out, nil
}

// NoOp is the pass-through option the paper includes in every stage so a
// stage can be skipped on some paths.
type NoOp struct{}

// NewNoOp returns the pass-through transformer.
func NewNoOp() *NoOp { return &NoOp{} }

// Name implements core.Component.
func (n *NoOp) Name() string { return "noop" }

// SetParam implements core.Component; NoOp has no parameters.
func (n *NoOp) SetParam(key string, _ float64) error { return errUnknownParam(n.Name(), key) }

// Params implements core.Component.
func (n *NoOp) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (n *NoOp) Clone() core.Transformer { return NewNoOp() }

// Fit is a no-op.
func (n *NoOp) Fit(*dataset.Dataset) error { return nil }

// Transform returns the dataset unchanged.
func (n *NoOp) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) { return ds, nil }

// quantileSorted returns the q-quantile of an ascending-sorted slice using
// linear interpolation.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
