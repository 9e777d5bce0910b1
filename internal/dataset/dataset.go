// Package dataset defines the tabular data container that flows through
// every Transformer-Estimator Graph pipeline, together with CSV I/O,
// sampling utilities and synthetic-data generators.
package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"coda/internal/matrix"
)

// Dataset is a feature matrix X with an optional target vector Y.
//
// Time-series windowing transformers (internal/tswindow) set WindowLen and
// NumVars so that downstream temporal estimators can reinterpret each row of
// X as a WindowLen x NumVars window without copying.
type Dataset struct {
	X        *matrix.Matrix
	Y        []float64
	ColNames []string

	// TargetName names the quantity in Y, for reporting.
	TargetName string

	// WindowLen is the history-window length p when rows of X are
	// flattened time windows; 0 means plain tabular data.
	WindowLen int
	// NumVars is the number of series variables v when windowed.
	NumVars int

	// ColScale/ColOffset record the affine map back to original units for
	// each column of X after scaling transformers ran:
	// original = scaled*ColScale[j] + ColOffset[j]. Nil means identity.
	// Windowing transformers consult them when deriving targets.
	ColScale  []float64
	ColOffset []float64
	// YScale/YOffset map Y (and predictions of Y) back to original units:
	// original = y*YScale + YOffset. YScale 0 means identity. Pipelines
	// use this so model scores are comparable across scaling options.
	YScale  float64
	YOffset float64

	// Mirror, when non-nil, lazily caches a float32 conversion of X/Y for
	// the reduced-precision NN path (see F32). Shared by shallow copies;
	// dropped whenever X is replaced.
	Mirror *F32Mirror
}

// New builds a Dataset, validating that len(y) matches x's rows when y is
// non-nil.
func New(x *matrix.Matrix, y []float64) (*Dataset, error) {
	if y != nil && x.Rows() != len(y) {
		return nil, fmt.Errorf("dataset: X has %d rows but Y has %d values", x.Rows(), len(y))
	}
	return &Dataset{X: x, Y: y}, nil
}

// NumSamples returns the number of rows.
func (d *Dataset) NumSamples() int { return d.X.Rows() }

// NumFeatures returns the number of feature columns.
func (d *Dataset) NumFeatures() int { return d.X.Cols() }

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	out := &Dataset{
		X:          d.X.Clone(),
		TargetName: d.TargetName,
		WindowLen:  d.WindowLen,
		NumVars:    d.NumVars,
		YScale:     d.YScale,
		YOffset:    d.YOffset,
	}
	if d.Y != nil {
		out.Y = append([]float64(nil), d.Y...)
	}
	if d.ColNames != nil {
		out.ColNames = append([]string(nil), d.ColNames...)
	}
	if d.ColScale != nil {
		out.ColScale = append([]float64(nil), d.ColScale...)
		out.ColOffset = append([]float64(nil), d.ColOffset...)
	}
	return out
}

// WithX returns a shallow variant of d with a replacement feature matrix,
// keeping Y and its affine metadata. Column names and column affines are
// cleared — the caller (a transformer) re-establishes them if its mapping
// preserves column identity.
func (d *Dataset) WithX(x *matrix.Matrix) *Dataset {
	out := *d
	out.X = x
	out.ColNames = nil
	out.ColScale = nil
	out.ColOffset = nil
	out.Mirror = nil
	return &out
}

// ColAffine returns the affine map of column j back to original units
// (identity when none was recorded).
func (d *Dataset) ColAffine(j int) (scale, offset float64) {
	if d.ColScale == nil || j >= len(d.ColScale) {
		return 1, 0
	}
	return d.ColScale[j], d.ColOffset[j]
}

// DenormY maps target-space values (truth or predictions) back to original
// units using YScale/YOffset; identity when no scaling was recorded.
func (d *Dataset) DenormY(y []float64) []float64 {
	if d.YScale == 0 && d.YOffset == 0 {
		return y
	}
	scale := d.YScale
	if scale == 0 {
		scale = 1
	}
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = v*scale + d.YOffset
	}
	return out
}

// Subset returns a new dataset with the rows idx (copied, in order).
// Column metadata is deep-copied like Clone does: subsets serve as
// sibling cross-validation folds evaluated concurrently, and sharing
// ColNames/ColScale/ColOffset by reference would let a transformer that
// rewrites column metadata corrupt every sibling.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:          d.X.SelectRows(idx),
		ColNames:   cloneStrings(d.ColNames),
		TargetName: d.TargetName,
		WindowLen:  d.WindowLen,
		NumVars:    d.NumVars,
		ColScale:   cloneFloats(d.ColScale),
		ColOffset:  cloneFloats(d.ColOffset),
		YScale:     d.YScale,
		YOffset:    d.YOffset,
	}
	if d.Y != nil {
		out.Y = make([]float64, len(idx))
		for k, i := range idx {
			out.Y[k] = d.Y[i]
		}
	}
	return out
}

// SliceRange returns rows [a, b) as a new dataset. Column metadata is
// deep-copied for the same sibling-isolation reason as Subset.
func (d *Dataset) SliceRange(a, b int) *Dataset {
	out := &Dataset{
		X:          d.X.SliceRows(a, b),
		ColNames:   cloneStrings(d.ColNames),
		TargetName: d.TargetName,
		WindowLen:  d.WindowLen,
		NumVars:    d.NumVars,
		ColScale:   cloneFloats(d.ColScale),
		ColOffset:  cloneFloats(d.ColOffset),
		YScale:     d.YScale,
		YOffset:    d.YOffset,
	}
	if d.Y != nil {
		out.Y = append([]float64(nil), d.Y[a:b]...)
	}
	return out
}

func cloneStrings(s []string) []string {
	if s == nil {
		return nil
	}
	return append([]string(nil), s...)
}

func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

// Shuffle returns a row-permuted copy using rng.
func (d *Dataset) Shuffle(rng *rand.Rand) *Dataset {
	idx := rng.Perm(d.NumSamples())
	return d.Subset(idx)
}

// Fingerprint returns a stable hex digest of the dataset contents. The DARR
// keys shared analytics results by this fingerprint so that cooperating
// clients agree on what "the same data" means.
func (d *Dataset) Fingerprint() string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(d.X.Rows()))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], uint64(d.X.Cols()))
	h.Write(buf[:])
	for _, v := range d.X.Data() {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for _, v := range d.Y {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// TrainTestSplit splits d into a train set with the given fraction of
// samples and a test set with the remainder, shuffling with rng first.
// frac must be in (0, 1).
func (d *Dataset) TrainTestSplit(frac float64, rng *rand.Rand) (train, test *Dataset, err error) {
	if frac <= 0 || frac >= 1 {
		return nil, nil, fmt.Errorf("dataset: train fraction %v outside (0,1)", frac)
	}
	n := d.NumSamples()
	idx := rng.Perm(n)
	cut := int(float64(n) * frac)
	if cut == 0 || cut == n {
		return nil, nil, fmt.Errorf("dataset: split of %d samples at %v leaves an empty side", n, frac)
	}
	return d.Subset(idx[:cut]), d.Subset(idx[cut:]), nil
}
