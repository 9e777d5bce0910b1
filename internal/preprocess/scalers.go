// Package preprocess implements the feature Transformers from the paper's
// Table I and Figure 3: the data scalers (one Scaler type, whose
// constructors give the standard, min-max and robust scalers, and NoOp),
// feature transformation (Covariance centering + PCA) and feature
// selection (SelectKBest), together with the data-quality utilities
// Section III calls for (imputation and outlier filtering).
//
// Every transformer type implements core.Transformer.
//
// Every product that meets an add is written float64(a*b), so no compiler
// fuses the two into one rounding (arm64 would): a fit or a prediction
// gives the same bits on every architecture.
package preprocess

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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
		out.ColOffset[j] = float64(offset[j]*inScale) + inOffset
	}
}

// Scaler maps each feature column to (x - centre) / spread, with a centre
// and a spread per column learned by Fit. A column with no spread (spread
// not > 0) is only centred, or, for a scaler that sets zeroFlat, maps to 0.
type Scaler struct {
	name     string
	fit      func(*dataset.Dataset) (centre, spread []float64)
	zeroFlat bool

	centre, spread []float64
}

// NewStandardScaler returns an unfitted scaler that standardizes each
// feature to zero mean and unit variance.
func NewStandardScaler() *Scaler {
	return &Scaler{name: "standardscaler", fit: func(ds *dataset.Dataset) ([]float64, []float64) {
		return ds.X.ColMeansStds() // one fused pass over the data
	}}
}

// NewMinMaxScaler returns an unfitted scaler that rescales each feature
// into [0, 1] using the fitted min/max; constant columns map to 0.
func NewMinMaxScaler() *Scaler {
	return &Scaler{name: "minmaxscaler", zeroFlat: true, fit: func(ds *dataset.Dataset) ([]float64, []float64) {
		mins, span := ds.X.ColMins(), ds.X.ColMaxs()
		for j := range span {
			span[j] -= mins[j]
		}
		return mins, span
	}}
}

// NewRobustScaler returns an unfitted scaler that centres by the median and
// scales by the interquartile range, making it resilient to the outliers
// common in industrial sensor data.
func NewRobustScaler() *Scaler {
	return &Scaler{name: "robustscaler", fit: func(ds *dataset.Dataset) ([]float64, []float64) {
		rows, cols := ds.X.Rows(), ds.X.Cols()
		medians, iqrs := make([]float64, cols), make([]float64, cols)
		x, col := ds.X.Data(), make([]float64, rows)
		var q [3]float64
		for j := 0; j < cols; j++ {
			for i := range col {
				col[i] = x[i*cols+j]
			}
			quantiles(col, []float64{0.25, 0.5, 0.75}, q[:])
			medians[j] = q[1]
			iqrs[j] = q[2] - q[0]
		}
		return medians, iqrs
	}}
}

// Name implements core.Component.
func (s *Scaler) Name() string { return s.name }

// SetParam implements core.Component; a scaler has no parameters.
func (s *Scaler) SetParam(key string, _ float64) error {
	return errUnknownParam(s.name, key)
}

// Params implements core.Component.
func (s *Scaler) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (s *Scaler) Clone() core.Transformer {
	return &Scaler{name: s.name, fit: s.fit, zeroFlat: s.zeroFlat}
}

// OutShape implements core.Transformer: scaling keeps the shape.
func (s *Scaler) OutShape(in core.Shape) core.Shape { return in }

// Fit learns each column's centre and spread.
func (s *Scaler) Fit(ds *dataset.Dataset) error {
	s.centre, s.spread = s.fit(ds)
	return nil
}

// Transform applies (x - centre) / spread column by column.
func (s *Scaler) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.centre == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, s.name)
	}
	if ds.X.Cols() != len(s.centre) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", s.name, len(s.centre), ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] -= s.centre[j]
			if s.spread[j] > 0 {
				row[j] /= s.spread[j]
			} else if s.zeroFlat {
				row[j] = 0
			}
		}
	}
	out := ds.WithX(x)
	scale := make([]float64, len(s.spread))
	for j, sp := range s.spread {
		if sp > 0 {
			scale[j] = sp
		} else {
			scale[j] = 1 // the column was only centred, or maps to 0 and the centre is its value
		}
	}
	setAffine(out, ds, scale, s.centre)
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

// OutShape implements core.Transformer: the shape passes through.
func (n *NoOp) OutShape(in core.Shape) core.Shape { return in }

// Fit is a no-op.
func (n *NoOp) Fit(*dataset.Dataset) error { return nil }

// Transform returns the dataset unchanged.
func (n *NoOp) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) { return ds, nil }

// quantiles sets out[i] to the qs[i]-quantile of vals, for qs in [0, 1]:
// the order statistics at floor and ceil of qs[i]*(len(vals)-1), linearly
// interpolated, with NaNs ordered first — bit for bit what sort.Float64s
// and then interpolating on the sorted slice gives. It puts just those
// order statistics in place, by selection, reordering vals. An empty vals
// gives NaN.
//
// +0 and -0 compare equal, so where each lands among the zeros is the
// sort's own choice, and it decides the sign of a zero quantile; a column
// holding both is sorted instead. (Which of two NaN payloads an operation
// returns neither IEEE 754 nor Go fixes, so NaN payloads are not pinned.)
func quantiles(vals, qs, out []float64) {
	n := len(vals)
	var pos0, neg0 bool
	for _, v := range vals {
		if v == 0 {
			if math.Signbit(v) {
				neg0 = true
			} else {
				pos0 = true
			}
		}
	}
	if pos0 && neg0 {
		sort.Float64s(vals)
	} else if n > 0 {
		nans := 0 // the NaNs go first, where sorting puts them
		for i, v := range vals {
			if v != v {
				vals[i], vals[nans] = vals[nans], v
				nans++
			}
		}
		var buf [6]int
		ranks := buf[:0]
		for _, q := range qs {
			lo := int(q * float64(n-1))
			ranks = append(ranks, min(lo, n-1), min(lo+1, n-1))
		}
		slices.Sort(ranks)
		ranks = slices.Compact(ranks)
		for len(ranks) > 0 && ranks[0] < nans {
			ranks = ranks[1:]
		}
		selectRanks(vals[nans:], nans, ranks, 2*bits.Len(uint(n)))
	}
	for i, q := range qs {
		out[i] = interpolate(vals, q)
	}
}

// interpolate is the q-quantile of vals, linearly interpolated between the
// order statistics at floor and ceil of q*(len(vals)-1), which must be in
// place.
func interpolate(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	if len(vals) == 1 {
		return vals[0]
	}
	pos := float64(q * float64(len(vals)-1))
	lo := int(pos)
	if lo >= len(vals)-1 {
		return vals[len(vals)-1]
	}
	frac := pos - float64(lo)
	return float64(vals[lo]*(1-frac)) + float64(vals[lo+1]*frac)
}

// selectRanks reorders x, which holds no NaN and starts at index base of
// the slice ranks index, so that for every rank in ranks (ascending) the
// element there is the one sorting would put there: a quickselect on a
// median-of-three pivot that follows every rank at once. It sorts what is
// left once a branch has taken budget partitions.
func selectRanks(x []float64, base int, ranks []int, budget int) {
	for len(ranks) > 0 {
		if len(x) <= 12 || budget == 0 {
			slices.Sort(x)
			return
		}
		budget--
		a, b, c := x[0], x[len(x)/2], x[len(x)-1]
		p := max(min(a, b), min(max(a, b), c)) // the median of the three
		cut := partition(x, func(v float64) bool { return v < p })
		equal := cut == 0 // p is x's least value: split off its copies, which are in place
		if equal {
			cut = partition(x, func(v float64) bool { return v <= p })
		}
		i := 0
		for i < len(ranks) && ranks[i] < base+cut {
			i++
		}
		if !equal {
			selectRanks(x[:cut], base, ranks[:i], budget)
		}
		x, base, ranks = x[cut:], base+cut, ranks[i:]
	}
}

// partition moves the values below the cut to the front of x, in one pass
// that swaps at every element, and returns how many there are.
func partition(x []float64, below func(float64) bool) int {
	n := 0
	for i, v := range x {
		x[i], x[n] = x[n], v
		d := 0 // an increment rather than a branch: the compiler sets it from the flags
		if below(v) {
			d = 1
		}
		n += d
	}
	return n
}
