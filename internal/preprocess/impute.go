package preprocess

import (
	"fmt"
	"math"
	"sort"

	"coda/internal/core"
	"coda/internal/dataset"
)

// ImputeStrategy selects how an Imputer fills missing (NaN) values.
type ImputeStrategy int

// Imputation strategies from Section III's fixed set of data-imputation
// techniques (mean, median, mode, k nearest neighbors).
const (
	ImputeMean ImputeStrategy = iota + 1
	ImputeMedian
	ImputeMode
	ImputeKNN
)

// String names the strategy.
func (s ImputeStrategy) String() string {
	switch s {
	case ImputeMean:
		return "mean"
	case ImputeMedian:
		return "median"
	case ImputeMode:
		return "mode"
	case ImputeKNN:
		return "knn"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Imputer fills NaN entries column-wise using the configured strategy.
// For ImputeKNN, each missing entry is filled with the average of that
// column over the K nearest training rows by distance on shared non-missing
// columns.
type Imputer struct {
	Strategy ImputeStrategy
	K        int // neighbours for ImputeKNN (default 5)

	fill     []float64 // per-column fill value for mean/median/mode
	trainX   [][]float64
	trainOK  [][]bool
	nFeature int
}

// NewImputer returns an unfitted Imputer.
func NewImputer(strategy ImputeStrategy) *Imputer { return &Imputer{Strategy: strategy, K: 5} }

// Name implements core.Component; it names the strategy, since the
// strategy changes what the imputer fills in.
func (im *Imputer) Name() string { return im.Strategy.String() + "imputer" }

// SetParam implements core.Component; "k" (for KNN) is supported.
func (im *Imputer) SetParam(key string, v float64) error {
	if key == "k" {
		im.K = int(v)
		return nil
	}
	return errUnknownParam(im.Name(), key)
}

// Params implements core.Component.
func (im *Imputer) Params() map[string]float64 {
	return map[string]float64{"k": float64(im.K)}
}

// Clone implements core.Transformer.
func (im *Imputer) Clone() core.Transformer {
	return &Imputer{Strategy: im.Strategy, K: im.K}
}

// Fit learns per-column fill statistics over non-missing entries.
func (im *Imputer) Fit(ds *dataset.Dataset) error {
	cols := ds.X.Cols()
	im.nFeature = cols
	switch im.Strategy {
	case ImputeMean, ImputeMedian, ImputeMode:
		im.fill = make([]float64, cols)
		for j := 0; j < cols; j++ {
			var vals []float64
			for i := 0; i < ds.X.Rows(); i++ {
				if v := ds.X.At(i, j); !math.IsNaN(v) {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				im.fill[j] = 0
				continue
			}
			switch im.Strategy {
			case ImputeMean:
				s := 0.0
				for _, v := range vals {
					s += v
				}
				im.fill[j] = s / float64(len(vals))
			case ImputeMedian:
				quantiles(vals, []float64{0.5}, im.fill[j:j+1])
			case ImputeMode:
				im.fill[j] = mode(vals)
			}
		}
	case ImputeKNN:
		if im.K < 1 {
			return fmt.Errorf("preprocess: KNN imputer needs K >= 1, got %d", im.K)
		}
		rows := ds.X.Rows()
		im.trainX = make([][]float64, rows)
		im.trainOK = make([][]bool, rows)
		for i := 0; i < rows; i++ {
			r := ds.X.RowCopy(i)
			ok := make([]bool, cols)
			for j, v := range r {
				ok[j] = !math.IsNaN(v)
			}
			im.trainX[i] = r
			im.trainOK[i] = ok
		}
	default:
		return fmt.Errorf("preprocess: unknown impute strategy %v", im.Strategy)
	}
	return nil
}

// Transform fills every NaN entry.
func (im *Imputer) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if im.nFeature == 0 {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, im.Name())
	}
	if ds.X.Cols() != im.nFeature {
		return nil, fmt.Errorf("preprocess: imputer fitted on %d cols, got %d", im.nFeature, ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j, v := range row {
			if !math.IsNaN(v) {
				continue
			}
			switch im.Strategy {
			case ImputeKNN:
				row[j] = im.knnFill(row, j)
			default:
				row[j] = im.fill[j]
			}
		}
	}
	out := ds.WithX(x)
	// Imputation preserves column identity and units.
	out.ColNames = ds.ColNames
	out.ColScale = ds.ColScale
	out.ColOffset = ds.ColOffset
	return out, nil
}

// knnFill averages column j over the K nearest training rows, measured by
// Euclidean distance on columns observed in both rows.
func (im *Imputer) knnFill(row []float64, j int) float64 {
	type cand struct {
		dist float64
		val  float64
	}
	var cands []cand
	for r, tr := range im.trainX {
		if !im.trainOK[r][j] {
			continue
		}
		d, shared := 0.0, 0
		for c, v := range row {
			if c == j || math.IsNaN(v) || !im.trainOK[r][c] {
				continue
			}
			diff := v - tr[c]
			d += float64(diff * diff)
			shared++
		}
		if shared == 0 {
			d = math.MaxFloat64 / 2
		}
		cands = append(cands, cand{d, tr[j]})
	}
	if len(cands) == 0 {
		return 0
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].dist < cands[b].dist })
	k := im.K
	if k > len(cands) {
		k = len(cands)
	}
	s := 0.0
	for _, c := range cands[:k] {
		s += c.val
	}
	return s / float64(k)
}

// mode returns the most frequent value (ties broken by smallest value).
func mode(vals []float64) float64 {
	counts := make(map[float64]int, len(vals))
	for _, v := range vals {
		counts[v]++
	}
	best, bestN := math.Inf(1), -1
	for v, n := range counts {
		if n > bestN || (n == bestN && v < best) {
			best, bestN = v, n
		}
	}
	return best
}
