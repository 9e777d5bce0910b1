package mlmodels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"coda/internal/core"
	"coda/internal/dataset"
)

// TreeTask selects regression (variance reduction) or classification (Gini
// impurity) splitting for DecisionTree.
type TreeTask int

// Decision-tree tasks.
const (
	TreeRegression TreeTask = iota + 1
	TreeClassification
)

type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // leaf prediction
	leaf      bool
}

// DecisionTree is a CART tree supporting regression and classification with
// depth, leaf-size, and feature-subsampling controls (the latter for use
// inside RandomForest).
type DecisionTree struct {
	Task        TreeTask
	MaxDepth    int // 0 = unbounded
	MinLeaf     int // minimum samples per leaf (default 1)
	MaxFeatures int // features considered per split; 0 = all

	root *treeNode
	rng  *rand.Rand // only set when feature subsampling is active
}

// NewDecisionTree returns an unfitted CART tree.
func NewDecisionTree(task TreeTask) *DecisionTree {
	return &DecisionTree{Task: task, MinLeaf: 1}
}

// Name implements core.Component.
func (t *DecisionTree) Name() string { return "decisiontree" }

// SetParam implements core.Component; "max_depth" and "min_leaf" are
// supported.
func (t *DecisionTree) SetParam(key string, v float64) error {
	switch key {
	case "max_depth":
		t.MaxDepth = int(v)
	case "min_leaf":
		t.MinLeaf = int(v)
	default:
		return errUnknownParam(t.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (t *DecisionTree) Params() map[string]float64 {
	return map[string]float64{"max_depth": float64(t.MaxDepth), "min_leaf": float64(t.MinLeaf)}
}

// Clone implements core.Estimator.
func (t *DecisionTree) Clone() core.Estimator {
	return &DecisionTree{Task: t.Task, MaxDepth: t.MaxDepth, MinLeaf: t.MinLeaf, MaxFeatures: t.MaxFeatures}
}

// Fit grows the tree.
func (t *DecisionTree) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", t.Name())
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", t.Name())
	}
	if t.Task != TreeRegression && t.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", t.Name(), t.Task)
	}
	if t.MinLeaf < 1 {
		t.MinLeaf = 1
	}
	idx := make([]int, ds.NumSamples())
	for i := range idx {
		idx[i] = i
	}
	t.root = t.grow(ds, idx, 0)
	return nil
}

func (t *DecisionTree) grow(ds *dataset.Dataset, idx []int, depth int) *treeNode {
	if len(idx) <= t.MinLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || pure(ds.Y, idx) {
		return &treeNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	feature, threshold, ok := t.bestSplit(ds, idx)
	if !ok {
		return &treeNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if ds.X.At(i, feature) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, value: t.leafValue(ds.Y, idx)}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      t.grow(ds, left, depth+1),
		right:     t.grow(ds, right, depth+1),
	}
}

// bestSplit scans candidate features for the split minimizing weighted
// impurity (variance or Gini).
func (t *DecisionTree) bestSplit(ds *dataset.Dataset, idx []int) (feature int, threshold float64, ok bool) {
	features := make([]int, ds.NumFeatures())
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(features) && t.rng != nil {
		t.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}
	best := math.Inf(1)
	type pair struct{ x, y float64 }
	pairs := make([]pair, len(idx))
	for _, j := range features {
		for k, i := range idx {
			pairs[k] = pair{ds.X.At(i, j), ds.Y[i]}
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmpLess(a.x, b.x) })
		// Incremental impurity scan over sorted order.
		switch t.Task {
		case TreeRegression:
			var sumL, sqL float64
			sumR, sqR := 0.0, 0.0
			for _, p := range pairs {
				sumR += p.y
				sqR += p.y * p.y
			}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				sumL += y
				sqL += y * y
				sumR -= y
				sqR -= y * y
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
					continue
				}
				varL := sqL - sumL*sumL/nL
				varR := sqR - sumR*sumR/nR
				if imp := varL + varR; imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		case TreeClassification:
			countsR := map[float64]float64{}
			for _, p := range pairs {
				countsR[p.y]++
			}
			countsL := map[float64]float64{}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				countsL[y]++
				countsR[y]--
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
					continue
				}
				if imp := nL*gini(countsL, nL) + nR*gini(countsR, nR); imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		}
	}
	return feature, threshold, ok
}

func gini(counts map[float64]float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

func pure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func (t *DecisionTree) leafValue(y []float64, idx []int) float64 {
	switch t.Task {
	case TreeClassification:
		counts := map[float64]int{}
		for _, i := range idx {
			counts[y[i]]++
		}
		best, bestN := 0.0, -1
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		return best
	default:
		s := 0.0
		for _, i := range idx {
			s += y[i]
		}
		return s / float64(len(idx))
	}
}

// Predict routes each row down the tree.
func (t *DecisionTree) Predict(ds *dataset.Dataset) ([]float64, error) {
	if t.root == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, t.Name())
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		node := t.root
		for !node.leaf {
			if ds.X.At(i, node.feature) <= node.threshold {
				node = node.left
			} else {
				node = node.right
			}
		}
		out[i] = node.value
	}
	return out, nil
}

// Depth returns the fitted tree's depth (0 for a single leaf).
func (t *DecisionTree) Depth() int { return depthOf(t.root) }

func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	l, r := depthOf(n.left), depthOf(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// cmpLess is the three-way comparator of the strict < the hot-loop sorts
// always used. Not cmp.Compare: that orders NaN before every number, which
// < does not, and the sorts must leave ties exactly where they did.
func cmpLess(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}
