package preprocess

import (
	"fmt"
	"math"
	"sort"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// Covariance is the centering transformer of the paper's Listing 1, where
// the feature-selection option [Covariance(), PCA()] chains covariance
// centering with a principal component analysis — together they form
// covariance-based PCA.
type Covariance struct {
	means []float64
}

// NewCovariance returns an unfitted centering transformer.
func NewCovariance() *Covariance { return &Covariance{} }

// Name implements core.Component.
func (c *Covariance) Name() string { return "covariance" }

// SetParam implements core.Component; no parameters.
func (c *Covariance) SetParam(key string, _ float64) error { return errUnknownParam(c.Name(), key) }

// Params implements core.Component.
func (c *Covariance) Params() map[string]float64 { return nil }

// Clone implements core.Transformer.
func (c *Covariance) Clone() core.Transformer { return NewCovariance() }

// OutShape implements core.Transformer: centring keeps the shape.
func (c *Covariance) OutShape(in core.Shape) core.Shape { return in }

// Fit learns column means.
func (c *Covariance) Fit(ds *dataset.Dataset) error {
	c.means = ds.X.ColMeans()
	return nil
}

// Transform subtracts the fitted column means.
func (c *Covariance) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if c.means == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, c.Name())
	}
	if ds.X.Cols() != len(c.means) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", c.Name(), len(c.means), ds.X.Cols())
	}
	x := ds.X.Clone()
	for i := 0; i < x.Rows(); i++ {
		row := x.Row(i)
		for j := range row {
			row[j] -= c.means[j]
		}
	}
	out := ds.WithX(x)
	scale := make([]float64, len(c.means))
	for j := range scale {
		scale[j] = 1
	}
	setAffine(out, ds, scale, c.means)
	return out, nil
}

// PCA projects features onto the top NComponents principal directions of
// the training data's covariance, via Jacobi eigendecomposition.
type PCA struct {
	// NComponents is the output dimensionality; 0 keeps all components.
	NComponents int

	means      []float64
	components *matrix.Matrix // cols x k, eigenvectors as columns
	// ExplainedVariance holds the eigenvalues of the kept components.
	ExplainedVariance []float64
}

// NewPCA returns an unfitted PCA keeping nComponents dimensions (0 = all).
func NewPCA(nComponents int) *PCA { return &PCA{NComponents: nComponents} }

// Name implements core.Component.
func (p *PCA) Name() string { return "pca" }

// SetParam implements core.Component; "n_components" is supported.
func (p *PCA) SetParam(key string, v float64) error {
	if key == "n_components" {
		p.NComponents = int(v)
		return nil
	}
	return errUnknownParam(p.Name(), key)
}

// Params implements core.Component.
func (p *PCA) Params() map[string]float64 {
	return map[string]float64{"n_components": float64(p.NComponents)}
}

// Clone implements core.Transformer.
func (p *PCA) Clone() core.Transformer { return NewPCA(p.NComponents) }

// OutShape implements core.Transformer: NComponents columns, or every
// column when it is 0 or more than there are.
func (p *PCA) OutShape(in core.Shape) core.Shape {
	if p.NComponents > 0 && p.NComponents < in.Cols {
		in.Cols = p.NComponents
	}
	return in
}

// Fit computes the principal directions of the training data.
func (p *PCA) Fit(ds *dataset.Dataset) error {
	p.means = ds.X.ColMeans()
	cov := ds.X.Covariance()
	vals, vecs, err := matrix.SymEig(cov)
	if err != nil {
		return fmt.Errorf("preprocess: pca eigendecomposition: %w", err)
	}
	k := p.NComponents
	if k <= 0 || k > ds.X.Cols() {
		k = ds.X.Cols()
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	p.components = vecs.SelectCols(idx)
	p.ExplainedVariance = append([]float64(nil), vals[:k]...)
	return nil
}

// Transform centres the data with the training means and projects it onto
// the principal directions.
func (p *PCA) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if p.components == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, p.Name())
	}
	if ds.X.Cols() != len(p.means) {
		return nil, fmt.Errorf("preprocess: %s fitted on %d cols, got %d", p.Name(), len(p.means), ds.X.Cols())
	}
	centred := ds.X.Clone()
	for i := 0; i < centred.Rows(); i++ {
		row := centred.Row(i)
		for j := range row {
			row[j] -= p.means[j]
		}
	}
	projected, err := centred.Mul(p.components)
	if err != nil {
		return nil, fmt.Errorf("preprocess: pca projection: %w", err)
	}
	return ds.WithX(projected), nil
}

// SelectKBest keeps the K features with the highest absolute Pearson
// correlation with the target (a univariate score in the spirit of
// sklearn's f_regression ranking).
type SelectKBest struct {
	K int

	keep []int
}

// NewSelectKBest returns an unfitted selector keeping k features.
func NewSelectKBest(k int) *SelectKBest { return &SelectKBest{K: k} }

// Name implements core.Component.
func (s *SelectKBest) Name() string { return "selectkbest" }

// SetParam implements core.Component; "k" is supported.
func (s *SelectKBest) SetParam(key string, v float64) error {
	if key == "k" {
		s.K = int(v)
		return nil
	}
	return errUnknownParam(s.Name(), key)
}

// Params implements core.Component.
func (s *SelectKBest) Params() map[string]float64 {
	return map[string]float64{"k": float64(s.K)}
}

// Clone implements core.Transformer.
func (s *SelectKBest) Clone() core.Transformer { return NewSelectKBest(s.K) }

// OutShape implements core.Transformer: K columns, or every column when K
// is 0 or more than there are.
func (s *SelectKBest) OutShape(in core.Shape) core.Shape {
	if s.K > 0 && s.K < in.Cols {
		in.Cols = s.K
	}
	return in
}

// Fit ranks features by |corr(x_j, y)| and remembers the top K column
// indices (in ascending index order so output column order is stable).
func (s *SelectKBest) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("preprocess: %s requires a supervised dataset", s.Name())
	}
	cols := ds.X.Cols()
	k := s.K
	if k <= 0 || k > cols {
		k = cols
	}
	scores := make([]float64, cols)
	for j := 0; j < cols; j++ {
		scores[j] = math.Abs(pearson(ds.X.ColCopy(j), ds.Y))
	}
	order := make([]int, cols)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	s.keep = append([]int(nil), order[:k]...)
	sort.Ints(s.keep)
	return nil
}

// Transform keeps the selected columns.
func (s *SelectKBest) Transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	if s.keep == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, s.Name())
	}
	for _, j := range s.keep {
		if j >= ds.X.Cols() {
			return nil, fmt.Errorf("preprocess: %s fitted with column %d, data has %d cols", s.Name(), j, ds.X.Cols())
		}
	}
	out := ds.WithX(ds.X.SelectCols(s.keep))
	if ds.ColNames != nil {
		names := make([]string, len(s.keep))
		for i, j := range s.keep {
			names[i] = ds.ColNames[j]
		}
		out.ColNames = names
	}
	if ds.ColScale != nil {
		out.ColScale = make([]float64, len(s.keep))
		out.ColOffset = make([]float64, len(s.keep))
		for i, j := range s.keep {
			out.ColScale[i], out.ColOffset[i] = ds.ColAffine(j)
		}
	}
	return out, nil
}

// pearson returns the Pearson correlation of two equal-length vectors,
// or 0 when either is constant.
func pearson(a, b []float64) float64 {
	n := float64(len(a))
	if n == 0 {
		return 0
	}
	var ma, mb float64
	for i := range a {
		ma += a[i]
		mb += b[i]
	}
	ma /= n
	mb /= n
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += float64(da * db)
		saa += float64(da * da)
		sbb += float64(db * db)
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}
