package core

import (
	"fmt"
	"strings"

	"coda/internal/dataset"
)

// Pipeline is one concrete root-to-leaf path instantiated with its own
// (unshared) component copies: a sequence of transformer nodes ending in an
// estimator node. Fit implements Figure 5's training semantics — internal
// nodes run "fit & transform", the final node runs "fit" — and Predict the
// prediction semantics — internal nodes run "transform" only.
//
// There is one way through a pipeline. An internal node is run by
// Node.fitTransform when training and Node.transform when predicting, here
// and in the search engine alike, and both reach a component through the
// Transformer interface and nothing else: no lookahead across nodes, no
// capability probed by type assertion. What a component is — bare,
// decorated, a remote service — cannot change how it is executed.
type Pipeline struct {
	Nodes []*Node

	fitted bool
}

// NewPipeline instantiates a path with fresh clones of every component, so
// pipelines built from the same graph can be fitted concurrently.
func NewPipeline(path Path) (*Pipeline, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("core: empty path")
	}
	p := &Pipeline{Nodes: make([]*Node, len(path))}
	for i, n := range path {
		if i < len(path)-1 && n.IsEstimator() {
			return nil, fmt.Errorf("core: estimator node %q before end of path", n.Name)
		}
		p.Nodes[i] = n.clone()
	}
	if !p.Nodes[len(p.Nodes)-1].IsEstimator() {
		return nil, fmt.Errorf("core: path must end in an estimator, got %q", path[len(path)-1].Name)
	}
	return p, nil
}

// Clone returns an unfitted copy carrying all current parameters.
func (p *Pipeline) Clone() *Pipeline {
	out := &Pipeline{Nodes: make([]*Node, len(p.Nodes))}
	for i, n := range p.Nodes {
		out.Nodes[i] = n.clone()
	}
	return out
}

// Estimator returns the terminal model node's estimator.
func (p *Pipeline) Estimator() Estimator { return p.Nodes[len(p.Nodes)-1].Estimator }

// SetParam applies a "node__param" assignment (the paper's sklearn-derived
// convention: node name, two underscores, attribute name).
func (p *Pipeline) SetParam(key string, v float64) error {
	node, param, ok := strings.Cut(key, "__")
	if !ok {
		return fmt.Errorf("core: parameter key %q is not of the form node__param", key)
	}
	for _, n := range p.Nodes {
		if n.Name != node {
			continue
		}
		if n.Estimator != nil {
			return setComponentParam(n.Estimator, param, v)
		}
		// For a chain node, the param goes to the first component in the
		// chain that accepts it (component parameter names are disjoint
		// in practice); with a single transformer it applies directly.
		if len(n.Transformers) == 1 {
			return setComponentParam(n.Transformers[0], param, v)
		}
		for _, t := range n.Transformers {
			if err := t.SetParam(param, v); err == nil {
				return nil
			}
		}
		return fmt.Errorf("core: chain node %q: no component accepts parameter %q", node, param)
	}
	return fmt.Errorf("core: no node named %q in pipeline %s", node, p.Spec())
}

// HasNode reports whether the pipeline contains the named node.
func (p *Pipeline) HasNode(name string) bool {
	for _, n := range p.Nodes {
		if n.Name == name {
			return true
		}
	}
	return false
}

// fitTransform is the one per-node step, Figure 5's "fit & transform": each
// transformer of the node is fitted on the training data as the node's
// earlier transformers left it and then applied to it; test, when non-nil,
// is pushed through the fitted node afterwards. Every fit in the package —
// Pipeline.Fit, a search's fold walk with or without the prefix cache, the
// refit of the winner — is this function, so they cannot disagree.
func (n *Node) fitTransform(train, test *dataset.Dataset) (trainOut, testOut *dataset.Dataset, err error) {
	trainOut = train
	for _, t := range n.Transformers {
		if err := t.Fit(trainOut); err != nil {
			return nil, nil, fmt.Errorf("core: fitting node %q: %w", n.Name, err)
		}
		next, err := t.Transform(trainOut)
		if err != nil {
			return nil, nil, fmt.Errorf("core: transforming through node %q: %w", n.Name, err)
		}
		trainOut = next
	}
	if test != nil {
		if testOut, err = n.transform(test); err != nil {
			return nil, nil, err
		}
	}
	return trainOut, testOut, nil
}

// transform is fitTransform's transform-only twin (Figure 5's prediction
// operation for an internal node): ds pushed through the fitted node.
func (n *Node) transform(ds *dataset.Dataset) (*dataset.Dataset, error) {
	for _, t := range n.Transformers {
		next, err := t.Transform(ds)
		if err != nil {
			return nil, fmt.Errorf("core: transforming through node %q: %w", n.Name, err)
		}
		ds = next
	}
	return ds, nil
}

// transformerNodes returns the internal nodes: everything but the estimator.
func (p *Pipeline) transformerNodes() []*Node { return p.Nodes[:len(p.Nodes)-1] }

// Fit trains the pipeline per Figure 5: every internal transformer node is
// fitted then applied to refresh the data for subsequent modelling, and the
// final estimator is fitted on the fully transformed data.
func (p *Pipeline) Fit(ds *dataset.Dataset) error {
	cur := ds
	for _, n := range p.transformerNodes() {
		var err error
		if cur, _, err = n.fitTransform(cur, nil); err != nil {
			return err
		}
	}
	if err := p.Estimator().Fit(cur); err != nil {
		return fmt.Errorf("core: fitting estimator %q: %w", p.Nodes[len(p.Nodes)-1].Name, err)
	}
	p.fitted = true
	return nil
}

// predict runs Figure 5's prediction operation: transform-only through the
// internal nodes, then the trained model generates predictions. It returns
// the transformed dataset with the predictions mapped back to original
// units.
func (p *Pipeline) predict(ds *dataset.Dataset) (cur *dataset.Dataset, yhat []float64, err error) {
	if !p.fitted {
		return nil, nil, fmt.Errorf("core: pipeline %s not fitted", p.Spec())
	}
	cur = ds
	for _, n := range p.transformerNodes() {
		if cur, err = n.transform(cur); err != nil {
			return nil, nil, err
		}
	}
	yhat, err = p.Estimator().Predict(cur)
	if err != nil {
		return nil, nil, err
	}
	return cur, cur.DenormY(yhat), nil
}

// Predict returns the fitted pipeline's predictions for ds. When scaling
// transformers rescaled the quantity being predicted (time-series
// pipelines derive targets from scaled series), predictions are mapped back
// to original units, so outputs — and scores — are comparable across
// scaling options.
func (p *Pipeline) Predict(ds *dataset.Dataset) ([]float64, error) {
	_, yhat, err := p.predict(ds)
	return yhat, err
}

// PredictWithTruth predicts and also returns the ground-truth targets after
// transformation — necessary because time-series windowing transformers
// derive the targets from the series itself, so the evaluation truth is
// only known post-transform. Both predictions and truth are mapped back to
// original units (see Predict).
func (p *Pipeline) PredictWithTruth(ds *dataset.Dataset) (yhat, ytrue []float64, err error) {
	cur, yhat, err := p.predict(ds)
	if err != nil {
		return nil, nil, err
	}
	return yhat, cur.DenormY(cur.Y), nil
}

// PrefixSpecs returns the canonical spec of every transformer prefix of
// the pipeline, shallowest first: element d-1 covers Nodes[:d] for
// d = 1..len(Nodes)-1 (the estimator is never part of a prefix). Specs
// render component names with resolved parameter values, so two
// differently-named graph nodes wrapping identical components share a
// spec — and therefore share prefix-cache entries, which is sound
// because they perform identical computations.
func (p *Pipeline) PrefixSpecs() []string {
	if len(p.Nodes) < 2 {
		return nil
	}
	specs := make([]string, 0, len(p.Nodes)-1)
	acc := "input"
	for _, n := range p.transformerNodes() {
		acc += " -> " + n.spec()
		specs = append(specs, acc)
	}
	return specs
}

// Spec renders the pipeline with all current parameter values; together
// with a dataset fingerprint and evaluation spec it keys DARR records.
func (p *Pipeline) Spec() string {
	parts := make([]string, 0, len(p.Nodes)+1)
	parts = append(parts, "input")
	for _, n := range p.Nodes {
		parts = append(parts, n.spec())
	}
	return strings.Join(parts, " -> ")
}
