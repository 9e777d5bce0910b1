package mlmodels

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// RandomForest is a bagged ensemble of feature-subsampled CART trees.
// Regression forests average tree outputs; classification forests take a
// majority vote.
type RandomForest struct {
	Task     TreeTask
	NTrees   int   // number of trees (default 50)
	MaxDepth int   // per-tree depth cap (0 = unbounded)
	MinLeaf  int   // per-tree minimum leaf size (default 1)
	Seed     int64 // rng seed for bootstrap and feature subsampling

	trees []*DecisionTree
}

// NewRandomForest returns an unfitted forest with nTrees members.
func NewRandomForest(task TreeTask, nTrees int) *RandomForest {
	return &RandomForest{Task: task, NTrees: nTrees, MinLeaf: 1}
}

// Name implements core.Component.
func (f *RandomForest) Name() string {
	if f.Task == TreeClassification {
		return "randomforestclassifier"
	}
	return "randomforest"
}

// SetParam implements core.Component; "n_trees" and "min_leaf", whole
// numbers >= 1, "max_depth", one >= 0, and "seed" are supported.
func (f *RandomForest) SetParam(key string, v float64) error {
	switch key {
	case "n_trees":
		return setWhole(&f.NTrees, f.Name(), key, v, 1)
	case "max_depth":
		return setWhole(&f.MaxDepth, f.Name(), key, v, 0)
	case "min_leaf":
		return setWhole(&f.MinLeaf, f.Name(), key, v, 1)
	case "seed":
		f.Seed = int64(v)
		return nil
	}
	return errUnknownParam(f.Name(), key)
}

// Params implements core.Component.
func (f *RandomForest) Params() map[string]float64 {
	return map[string]float64{
		"n_trees":   float64(f.NTrees),
		"max_depth": float64(f.MaxDepth),
		"min_leaf":  float64(f.MinLeaf),
		"seed":      float64(f.Seed),
	}
}

// Clone implements core.Estimator.
func (f *RandomForest) Clone() core.Estimator {
	return &RandomForest{Task: f.Task, NTrees: f.NTrees, MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, Seed: f.Seed}
}

// Fit grows NTrees trees on bootstrap resamples with sqrt(p) feature
// subsampling.
func (f *RandomForest) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", f.Name())
	}
	if f.NTrees < 1 {
		f.NTrees = 50
	}
	n := ds.NumSamples()
	if n == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", f.Name())
	}
	if f.Task != TreeRegression && f.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", f.Name(), f.Task)
	}
	// The bootstrap draws and each tree's seed come from one generator,
	// each tree's feature shuffles from another, seeded again per tree.
	rng, treeSrc := rand.New(matrix.NewRand(f.Seed)), new(matrix.Rand)
	treeRng := rand.New(treeSrc)
	maxFeatures := max(int(math.Sqrt(float64(ds.NumFeatures()))), 1)
	// A bootstrap repeats rows of ds, so every tree grows on one presorted
	// layout of it, taking its draws as row multiplicities.
	g := newGrower(newColumns(ds, f.Task), n)
	trees := make([]DecisionTree, f.NTrees)
	f.trees = make([]*DecisionTree, f.NTrees)
	for t := range trees {
		for i := range g.draws {
			g.draws[i] = rng.Intn(n)
		}
		treeSrc.Seed(rng.Int63())
		trees[t] = DecisionTree{Task: f.Task, MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, MaxFeatures: maxFeatures}
		g.grow(&trees[t], treeRng)
		f.trees[t] = &trees[t]
	}
	return nil
}

// Predict aggregates the member trees.
func (f *RandomForest) Predict(ds *dataset.Dataset) ([]float64, error) {
	if f.trees == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, f.Name())
	}
	if err := checkWidth(f.Name(), f.trees[0].width, ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	switch f.Task {
	case TreeClassification:
		votes := map[float64]int{}
		for i := range out {
			clear(votes)
			for _, tree := range f.trees {
				votes[tree.leaf(ds.X.Row(i))]++
			}
			best, bestN := 0.0, -1
			for v, c := range votes {
				if c > bestN || (c == bestN && v < best) {
					best, bestN = v, c
				}
			}
			out[i] = best
		}
	default:
		for _, tree := range f.trees {
			for i := range out {
				out[i] += tree.leaf(ds.X.Row(i))
			}
		}
		for i := range out {
			out[i] /= float64(len(f.trees))
		}
	}
	return out, nil
}
