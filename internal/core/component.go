// Package core implements the paper's primary contribution: the
// Transformer-Estimator Graph (TEG), a rooted DAG whose vertices are named
// machine-learning operations and whose root-to-leaf paths are pipelines.
// The package provides the component contracts, graph construction API
// (Section IV-A, Listing 1), pipeline fit/predict semantics (Figure 5), and
// the model validation and selection engine (Section IV-B, Listing 2),
// including parameter-grid expansion with the sklearn-style
// "node__param" naming convention.
package core

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"coda/internal/dataset"
)

// Component is the common contract for every vertex operation in a
// Transformer-Estimator Graph. Name returns the default node name (for
// example "pca"); parameters are addressed externally as
// "<node>__<param>" per the paper's naming convention.
type Component interface {
	// Name returns the component's default node name.
	Name() string
	// SetParam sets a named hyperparameter. Unknown keys are an error.
	SetParam(key string, value float64) error
	// Params returns the current hyperparameter values.
	Params() map[string]float64
}

// Transformer is a Component whose operation rewrites a dataset: feature
// scaling, selection, projection, or time-series windowing. Fit learns any
// data-dependent state (an Estimate operation in the paper's terminology);
// Transform applies it.
type Transformer interface {
	Component
	Fit(ds *dataset.Dataset) error
	Transform(ds *dataset.Dataset) (*dataset.Dataset, error)
	// Clone returns an unfitted copy carrying the same hyperparameters,
	// so concurrent folds and paths never share mutable state.
	Clone() Transformer
	// OutShape is the shape Transform gives a dataset of shape in, stated
	// from the hyperparameters alone: nothing is fitted or transformed.
	OutShape(in Shape) Shape
}

// Estimator is a Component that learns a predictive model from a dataset
// and predicts targets for new data.
type Estimator interface {
	Component
	// Fit learns the model from ds, discarding any earlier fit: after it,
	// Predict gives what a fresh Clone fitted on ds alone would, bit for
	// bit. (A search fits one clone per unit on every fold in turn.)
	Fit(ds *dataset.Dataset) error
	Predict(ds *dataset.Dataset) ([]float64, error)
	// Clone returns an unfitted copy carrying the same hyperparameters.
	Clone() Estimator
	// FitCost is a static estimate of one Fit's work on a dataset of shape
	// in, from the hyperparameters and the shape alone, never measured; 0
	// states no cost. Search hands out the costliest units first
	// (dispatchOrder); no score depends on it.
	FitCost(in Shape) float64
}

// Shape is what a fit-cost estimate knows of a dataset: Rows samples of
// Cols columns, read as windows of WindowLen time steps when WindowLen is
// set (dataset.Dataset's cascaded-window metadata). Search states the
// search dataset's shape and walks it through a unit's transformers
// (Transformer.OutShape) to the shape its estimator is fitted on.
type Shape struct {
	Rows, Cols, WindowLen int
}

// shapeOf is ds's shape.
func shapeOf(ds *dataset.Dataset) Shape {
	return Shape{Rows: ds.NumSamples(), Cols: ds.NumFeatures(), WindowLen: ds.WindowLen}
}

// ComponentSpec renders a component with its parameters as a canonical,
// deterministic string such as "pca(n_components=3)". The DARR keys results
// by these specs so cooperating clients agree on what has been computed.
func ComponentSpec(c Component) string {
	params := c.Params()
	if len(params) == 0 {
		return c.Name()
	}
	// The parameters, sorted by name; up to 8 of them stay on the stack.
	type param struct {
		name string
		v    float64
	}
	var arr [8]param
	ps := arr[:0]
	for k, v := range params {
		ps = append(ps, param{k, v})
	}
	slices.SortFunc(ps, func(a, b param) int { return strings.Compare(a.name, b.name) })
	// One allocation for the string: a rendered float64 is at most 24 bytes.
	name := c.Name()
	size := len(name) + 1
	for _, p := range ps {
		size += len(p.name) + 2 + 24
	}
	var b strings.Builder
	b.Grow(size)
	b.WriteString(name)
	var num [24]byte
	for i, p := range ps {
		if i == 0 {
			b.WriteByte('(')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(p.name)
		b.WriteByte('=')
		b.Write(strconv.AppendFloat(num[:0], p.v, 'g', -1, 64))
	}
	b.WriteByte(')')
	return b.String()
}

// SetGraphParam applies a "node__param" assignment to the matching node
// component, returning a descriptive error when the node or parameter does
// not exist.
func setComponentParam(c Component, param string, v float64) error {
	if err := c.SetParam(param, v); err != nil {
		return fmt.Errorf("core: setting %s__%s: %w", c.Name(), param, err)
	}
	return nil
}
