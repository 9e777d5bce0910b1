package core

import (
	"cmp"
	"slices"
)

// dispatchOrder is the order a search hands its units to workers and
// claims them in: the costliest fit first (Graham's longest-processing-time
// rule), ties in plan order. A unit's cost is its estimator's FitCost on
// the shape its transformers make of in, the search dataset's shape: a
// static estimate, so every client of a DARR orders a plan alike. The
// order is nil — plan order — when no unit states a cost.
//
// A path whose estimator, as the graph holds it, states no cost has no
// costly unit: nothing of it is built. Otherwise each unit's cost is read
// off the graph's components when no grid key names a node of the path,
// and off the unit's own pipeline when one does.
func (p *plan) dispatchOrder(in Shape) []int {
	var cost []float64
	for pi, path := range p.paths {
		c := path[len(path)-1].Estimator.FitCost(pathShape(path, in))
		if c == 0 {
			continue
		}
		if cost == nil {
			cost = make([]float64, len(p.keys))
		}
		gridded := false
		for _, k := range p.grid {
			gridded = gridded || path.has(k.node)
		}
		for u := p.first[pi]; u < p.first[pi+1]; u++ {
			cost[u] = c
			if !gridded {
				continue
			}
			if pl, err := p.build(u); err != nil {
				cost[u] = 0 // its worker fails at once
			} else {
				cost[u] = pl.Estimator().FitCost(pathShape(pl.Nodes, in))
			}
		}
	}
	if cost == nil {
		return nil
	}
	order := make([]int, len(p.keys))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cost[b], cost[a]) })
	return order
}

// permuteKey is the context key under which a test hands Search a
// *permutation to apply to every dispatch order it builds
// (WithDispatchPermutation in export_test.go): no score may depend on the
// order.
type permuteKey struct{}

// permutation rewrites a dispatch order in place.
type permutation struct{ apply func(order []int) }

// pathShape is the shape in leaves path's transformers in: what its
// estimator is fitted on.
func pathShape(path []*Node, in Shape) Shape {
	for _, n := range path[:len(path)-1] {
		for _, t := range n.Transformers {
			in = t.OutShape(in)
		}
	}
	return in
}
