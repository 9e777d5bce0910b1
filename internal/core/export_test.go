package core

import (
	"context"

	"coda/internal/dataset"
)

// DatasetBytes is the size the prefix cache charges an entry's dataset.
func DatasetBytes(ds *dataset.Dataset) int64 { return datasetBytes(ds) }

// ClaimAhead lets the external test package state the claim window's
// bounds in terms of the constant the search uses.
const ClaimAhead = claimAhead

// RecheckInterval is how long a search waits on a peer's keys when its
// store has no Wait.
const RecheckInterval = recheckInterval

// EvalSpec is the eval spec Search keys opts' units with.
func EvalSpec(opts SearchOptions) string { return evalSpecOf(opts) }

// PlannedUnit is one unit as Search plans it, beside the spec of the
// pipeline the unit builds when it runs.
type PlannedUnit struct {
	Key, Spec, BuiltSpec string
}

// PlanUnits plans g's units under grid the way Search does and builds
// every one of them.
func PlanUnits(g *Graph, grid map[string][]float64, fp, evalSpec string) ([]PlannedUnit, error) {
	paths, err := g.finalPaths()
	if err != nil {
		return nil, err
	}
	pl, err := planUnits(g, paths, grid, fp, evalSpec)
	if err != nil {
		return nil, err
	}
	out := make([]PlannedUnit, len(pl.keys))
	for i, key := range pl.keys {
		p, err := pl.build(i)
		if err != nil {
			return nil, err
		}
		out[i] = PlannedUnit{Key: key, Spec: pl.spec(i), BuiltSpec: p.Spec()}
	}
	return out, nil
}

// ClaimCap lets the external test package state the claim window's cap.
const ClaimCap = claimCap

// WithDispatchPermutation returns ctx under which Search applies perm to
// every dispatch order it builds — plan order when it builds none — before
// it claims or hands out a unit.
func WithDispatchPermutation(ctx context.Context, perm func(order []int)) context.Context {
	return context.WithValue(ctx, permuteKey{}, &permutation{apply: perm})
}

// DispatchOrder is the order Search hands out g's units in under grid,
// over a dataset of shape in: nil is plan order.
func DispatchOrder(g *Graph, grid map[string][]float64, in Shape) ([]int, error) {
	paths, err := g.finalPaths()
	if err != nil {
		return nil, err
	}
	pl, err := planUnits(g, paths, grid, "fp", "eval")
	if err != nil {
		return nil, err
	}
	return pl.dispatchOrder(in), nil
}
