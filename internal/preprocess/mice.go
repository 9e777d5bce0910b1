package preprocess

import (
	"fmt"
	"math"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// MICEImputer implements multiple imputation by chained equations, one of
// the imputation methods Section III names: missing entries start at the
// column mean, then for several rounds each incomplete column is regressed
// (ridge) on all other columns over the originally-complete rows, and its
// missing entries are replaced with the regression's predictions. The
// chained updates let imputations in one column inform the others.
type MICEImputer struct {
	Rounds int     // chained-equation sweeps (default 5)
	Alpha  float64 // ridge penalty for the per-column regressions (default 1e-3)

	// Fitted state: per incomplete column, the regression weights over the
	// remaining columns (plus intercept) learned on the training data, and
	// the per-column means for initialization.
	means  []float64
	models map[int][]float64 // col -> [intercept, w_0..w_{p-2}] over other columns
}

// NewMICEImputer returns an unfitted MICE imputer.
func NewMICEImputer() *MICEImputer { return &MICEImputer{Rounds: 5, Alpha: 1e-3} }

// Name implements core.Component.
func (m *MICEImputer) Name() string { return "mice" }

// SetParam implements core.Component; "rounds" and "alpha" are supported.
func (m *MICEImputer) SetParam(key string, v float64) error {
	switch key {
	case "rounds":
		m.Rounds = int(v)
	case "alpha":
		m.Alpha = v
	default:
		return errUnknownParam(m.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (m *MICEImputer) Params() map[string]float64 {
	return map[string]float64{"rounds": float64(m.Rounds), "alpha": m.Alpha}
}

// Clone implements core.Transformer.
func (m *MICEImputer) Clone() core.Transformer {
	return &MICEImputer{Rounds: m.Rounds, Alpha: m.Alpha}
}

// Fit learns the chained regression models on the training data.
func (m *MICEImputer) Fit(ds *dataset.Dataset) error {
	if m.Rounds < 1 {
		m.Rounds = 5
	}
	if m.Alpha <= 0 {
		m.Alpha = 1e-3
	}
	n, p := ds.NumSamples(), ds.NumFeatures()
	if n < p+2 {
		return fmt.Errorf("preprocess: mice needs more rows (%d) than columns (%d)", n, p)
	}
	m.means = make([]float64, p)
	missing := make([][]bool, n)
	colHasMissing := make([]bool, p)
	counts := make([]float64, p)
	for i := 0; i < n; i++ {
		missing[i] = make([]bool, p)
		for j, v := range ds.X.Row(i) {
			if math.IsNaN(v) {
				missing[i][j] = true
				colHasMissing[j] = true
			} else {
				m.means[j] += v
				counts[j]++
			}
		}
	}
	for j := range m.means {
		if counts[j] > 0 {
			m.means[j] /= counts[j]
		}
	}

	// Working copy initialized with mean imputation.
	work := ds.X.Clone()
	for i := 0; i < n; i++ {
		row := work.Row(i)
		for j := range row {
			if missing[i][j] {
				row[j] = m.means[j]
			}
		}
	}

	m.models = map[int][]float64{}
	for round := 0; round < m.Rounds; round++ {
		for j := 0; j < p; j++ {
			if !colHasMissing[j] {
				continue
			}
			weights, err := m.fitColumn(work, missing, j)
			if err != nil {
				return fmt.Errorf("preprocess: mice column %d: %w", j, err)
			}
			m.models[j] = weights
			// Update the working copy's missing entries with predictions.
			for i := 0; i < n; i++ {
				if missing[i][j] {
					work.Set(i, j, m.predictCell(work.Row(i), j, weights))
				}
			}
		}
	}
	return nil
}

// fitColumn regresses column j on the other columns over rows where j was
// observed, with ridge regularization.
func (m *MICEImputer) fitColumn(work *matrix.Matrix, missing [][]bool, j int) ([]float64, error) {
	n, p := work.Rows(), work.Cols()
	var rows []int
	for i := 0; i < n; i++ {
		if !missing[i][j] {
			rows = append(rows, i)
		}
	}
	if len(rows) < p+1 {
		// Too few observed rows to regress: fall back to the mean model.
		return make([]float64, p), nil // intercept 0 + zero weights => handled by +mean below? no:
	}
	cols := p - 1 // all except j
	ridgeRows := len(rows) + cols
	a := matrix.New(ridgeRows, cols+1)
	b := make([]float64, ridgeRows)
	for r, i := range rows {
		row := a.Row(r)
		row[0] = 1
		src := work.Row(i)
		k := 1
		for c := 0; c < p; c++ {
			if c == j {
				continue
			}
			row[k] = src[c]
			k++
		}
		b[r] = work.At(i, j)
	}
	s := math.Sqrt(m.Alpha)
	for c := 0; c < cols; c++ {
		a.Set(len(rows)+c, c+1, s)
	}
	return matrix.SolveLeastSquares(a, b)
}

// predictCell evaluates column j's regression on one row. A zero-weight
// model (fallback) predicts the column mean.
func (m *MICEImputer) predictCell(row []float64, j int, weights []float64) float64 {
	allZero := true
	for _, w := range weights {
		if w != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return m.means[j]
	}
	s := weights[0]
	k := 1
	for c := 0; c < len(row); c++ {
		if c == j {
			continue
		}
		s += float64(weights[k] * row[c])
		k++
	}
	return s
}

// Transform fills NaN entries using the fitted chained models, iterating
// the same number of rounds so mutually-missing entries stabilize.
func (m *MICEImputer) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if m.means == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, m.Name())
	}
	if ds.X.Cols() != len(m.means) {
		return nil, fmt.Errorf("preprocess: mice fitted on %d cols, got %d", len(m.means), ds.X.Cols())
	}
	n, p := ds.NumSamples(), ds.NumFeatures()
	x := ds.X.Clone()
	missing := make([][]bool, n)
	for i := 0; i < n; i++ {
		missing[i] = make([]bool, p)
		row := x.Row(i)
		for j, v := range row {
			if math.IsNaN(v) {
				missing[i][j] = true
				row[j] = m.means[j]
			}
		}
	}
	for round := 0; round < m.Rounds; round++ {
		for j := 0; j < p; j++ {
			weights, ok := m.models[j]
			if !ok {
				continue
			}
			for i := 0; i < n; i++ {
				if missing[i][j] {
					x.Set(i, j, m.predictCell(x.Row(i), j, weights))
				}
			}
		}
	}
	out := ds.WithX(x)
	out.ColNames = ds.ColNames
	out.ColScale = ds.ColScale
	out.ColOffset = ds.ColOffset
	return out, nil
}
