package mlmodels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// RandomForest is a bagged ensemble of feature-subsampled CART trees.
// Regression forests average tree outputs; classification forests take a
// majority vote, and PredictProba gives the share of trees that vote 1.
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

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (f *RandomForest) FitCost(core.Shape) float64 { return 0 }

// Fit grows NTrees trees on bootstrap resamples with sqrt(p) feature
// subsampling. The trees come in order from one seeded sequence, so the
// forest of n trees is the first n of any longer forest of its seed and
// shape; on a dataset that carries a memo, every forest of one seed and
// shape grows onto that one sequence (growth), and on datasets that share
// a memo, the sequence is grown once per rank class (rankSignature) and
// re-thresholded on each dataset (copies).
func (f *RandomForest) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", f.Name())
	}
	if f.NTrees < 1 {
		f.NTrees = 50
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", f.Name())
	}
	if f.Task != TreeRegression && f.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", f.Name(), f.Task)
	}
	seq := dataset.Memoized(ds, f.growthKey(), func() treeSeq { return newTreeSeq(ds, f) })
	f.trees = seq.first(f.NTrees)
	return nil
}

// treeSeq is a forest's tree sequence on one dataset.
type treeSeq interface {
	// first returns the sequence's first n trees.
	first(n int) []*DecisionTree
}

// newTreeSeq is f's tree sequence on ds: the growth of ds's rank class
// when ds shares a memo and has a signature, re-thresholded on ds unless
// it was grown on ds's own columns, and ds's own growth otherwise.
func newTreeSeq(ds *dataset.Dataset, f *RandomForest) treeSeq {
	c := presorted(ds, f.Task)
	sig := rankSignature(ds, c)
	if sig == "" {
		return newGrowth(c, *f)
	}
	g := dataset.SharedMemoized(ds, rankedKey{sig, f.growthKey()}, func() *growth { return newGrowth(c, *f) })
	if g.g.c == c {
		return g
	}
	shape := *f // as it is now, for a fallback after f's fit
	return &copies{from: g, x: c.x, own: func() *growth { return newGrowth(c, shape) }}
}

// growthKey names a forest's tree sequence: its name, which tells the
// tasks apart, and every parameter but n_trees, each as its float64's
// bits in name order, so a parameter added to Params joins it. Seed is
// also kept whole, since its float64 rounds above 2^53.
func (f *RandomForest) growthKey() growthKey {
	var key [128]byte
	b := appendParamKey(key[:0], f.Name(), f.Params(), "n_trees")
	return growthKey(strconv.AppendInt(append(b, " seed="...), f.Seed, 10))
}

// appendParamKey appends name and every parameter but skip, each as its
// float64's bits, in name order.
func appendParamKey(b []byte, name string, params map[string]float64, skip string) []byte {
	var buf [8]string
	names := buf[:0]
	for k := range params {
		if k != skip {
			names = append(names, k)
		}
	}
	slices.Sort(names)
	b = append(b, name...)
	for _, k := range names {
		b = append(append(append(b, ' '), k...), '=')
		b = strconv.AppendUint(b, math.Float64bits(params[k]), 16)
	}
	return b
}

// growthKey names a tree or a tree sequence of one shape.
type growthKey string

// growth is the sequence of trees a forest of one seed and shape grows on
// one dataset, and where it left off: the grower on the dataset's
// columns, the bootstrap generator, which also seeds each tree, and the
// trees' feature-shuffle generator, re-seeded per tree.
type growth struct {
	mu           sync.Mutex
	g            grower
	src, treeSrc matrix.Rand
	// rng and treeRng read src and treeSrc. They are held by value, like
	// the grower, so a fit with no memo allocates no more than one that
	// kept them on its stack.
	rng, treeRng rand.Rand
	shape        DecisionTree // every tree's Task, MaxDepth, MinLeaf and MaxFeatures
	slab         []DecisionTree
	trees        []*DecisionTree
}

// newGrowth is the growth of f's seed and shape on c.
func newGrowth(c *columns, f RandomForest) *growth {
	g := &growth{
		g: *newGrower(c, len(c.y)),
		shape: DecisionTree{Task: f.Task, MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf,
			MaxFeatures: max(int(math.Sqrt(float64(len(c.x)))), 1)},
	}
	g.src.Seed(f.Seed)
	g.rng, g.treeRng = *rand.New(&g.src), *rand.New(&g.treeSrc)
	return g
}

// first returns the sequence's first n trees, growing those it lacks. It
// holds the lock for one tree at a time, so a forest whose trees exist
// waits for at most one tree of a longer forest growing beside it. Trees
// come from a slab sized for the forest that asked for them.
func (g *growth) first(n int) []*DecisionTree {
	for {
		g.mu.Lock()
		if len(g.trees) >= n {
			trees := g.trees[:n:n]
			g.mu.Unlock()
			return trees
		}
		if len(g.slab) == cap(g.slab) {
			g.slab = make([]DecisionTree, 0, n-len(g.trees))
			g.trees = slices.Grow(g.trees, n-len(g.trees))
		}
		// A bootstrap repeats rows of the dataset, so every tree grows on
		// its one presorted layout, taking its draws as row multiplicities.
		for i := range g.g.draws {
			g.g.draws[i] = g.rng.Intn(len(g.g.draws))
		}
		g.treeSrc.Seed(g.rng.Int63())
		g.slab = append(g.slab, g.shape)
		t := &g.slab[len(g.slab)-1]
		g.g.grow(t, &g.treeRng)
		g.trees = append(g.trees, t)
		treesGrown.Add(1)
		g.mu.Unlock()
	}
}

// copies is a dataset's view of the growth of its rank class grown on
// another dataset: each tree re-thresholded on this dataset's columns, as
// its forests ask for them. A tree that is not ranked, or would not
// re-threshold here, turns the view into this dataset's own growth, from
// the first tree: a fit from scratch.
type copies struct {
	mu       sync.Mutex
	from     *growth
	x        [][]float64
	own      func() *growth // makes this dataset's own growth
	fallback *growth        // own's growth, once made
	nodes    nodeSlab
	slab     []DecisionTree
	trees    []*DecisionTree
}

func (c *copies) first(n int) []*DecisionTree {
	c.mu.Lock()
	if c.fallback == nil && len(c.trees) < n {
		// Growing takes the growth's lock, tree by tree, and not this
		// view's, so a sibling asking for fewer trees does not wait.
		c.mu.Unlock()
		src := c.from.first(n)
		c.mu.Lock()
		if need := n - len(c.trees); cap(c.slab)-len(c.slab) < need {
			c.slab = make([]DecisionTree, 0, need)
		}
		for c.fallback == nil && len(c.trees) < n {
			t := src[len(c.trees)]
			var root *treeNode
			if t.ranked {
				root = rethresholded(t.root, c.x, &c.nodes)
			}
			if root == nil {
				c.fallback, c.nodes, c.slab, c.trees = c.own(), nil, nil, nil
				break
			}
			c.slab = append(c.slab, *t)
			c.slab[len(c.slab)-1].root = root
			c.trees = append(c.trees, &c.slab[len(c.slab)-1])
		}
	}
	fallback, trees := c.fallback, c.trees
	c.mu.Unlock()
	if fallback != nil {
		return fallback.first(n)
	}
	return trees[:n:n]
}

// PredictProba returns, per row, the share of a classification forest's
// trees that vote 1: a score to rank, P(y=1) as the forest estimates it.
// Predict's majority vote is 1 where the share is over 1/2 and 0 where it
// is under, when the labels are 0 and 1.
func (f *RandomForest) PredictProba(ds *dataset.Dataset) ([]float64, error) {
	if f.Task != TreeClassification {
		return nil, fmt.Errorf("mlmodels: %s gives no class probabilities", f.Name())
	}
	if f.trees == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, f.Name())
	}
	if err := checkWidth(f.Name(), f.trees[0].width, ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		ones := 0
		for _, tree := range f.trees {
			if tree.leaf(ds.X.Row(i)) == 1 {
				ones++
			}
		}
		out[i] = float64(ones) / float64(len(f.trees))
	}
	return out, nil
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
		var b ballot
		for i := range out {
			b = b[:0]
			for _, tree := range f.trees {
				b.add(tree.leaf(ds.X.Row(i)))
			}
			out[i] = b.winner()
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
