package mlmodels

import (
	"cmp"
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
func (t *DecisionTree) Name() string {
	if t.Task == TreeClassification {
		return "decisiontreeclassifier"
	}
	return "decisiontree"
}

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
	t.grow(newColumns(ds, t.Task), nil)
	return nil
}

// columns is a dataset laid out for CART: each feature as a contiguous
// column and its rows sorted once by cmpLess, ties in ascending row order.
// A forest Fit builds it once for all its trees.
type columns struct {
	x       [][]float64 // x[j][r] is row r's feature j
	sorted  [][]int     // sorted[j] is every row, ordered by x[j]
	y       []float64
	class   []int     // classification: y[r]'s index in classes
	classes []float64 // classification: the distinct targets, ascending
}

func newColumns(ds *dataset.Dataset, task TreeTask) *columns {
	n, p := ds.NumSamples(), ds.NumFeatures()
	c := &columns{x: make([][]float64, p), sorted: make([][]int, p), y: ds.Y}
	xs, rows := make([]float64, n*p), make([]int, n*p)
	for j := range p {
		x, s := xs[j*n:(j+1)*n:(j+1)*n], rows[j*n:(j+1)*n:(j+1)*n]
		for r := range x {
			x[r], s[r] = ds.X.At(r, j), r
		}
		slices.SortFunc(s, func(a, b int) int { return cmp.Or(cmpLess(x[a], x[b]), a-b) })
		c.x[j], c.sorted[j] = x, s
	}
	if task == TreeClassification {
		c.classes = slices.Clone(ds.Y)
		slices.Sort(c.classes)
		c.classes = slices.Compact(c.classes)
		c.class = make([]int, n)
		for r, v := range ds.Y {
			c.class[r], _ = slices.BinarySearch(c.classes, v)
		}
	}
	return c
}

// grower grows one tree on a columns. A node owns a segment of every sorted
// list (its distinct rows) and of the draw list (its draws, in draw order);
// a split stably partitions all of them, so no node sorts.
type grower struct {
	t                *DecisionTree
	c                *columns
	w                []int   // w[r]: how many times row r was drawn
	sorted           [][]int // c.sorted filtered to the drawn rows
	draws            []int
	goLeft           []bool // the split being applied, by row
	buf              []int  // partition scratch
	features         []int
	countsL, countsR []float64
}

// grow fits t on the rows of c named by draws, repeats allowed (a bootstrap
// sample); nil draws every row once. It takes ownership of draws.
func (t *DecisionTree) grow(c *columns, draws []int) {
	t.MinLeaf = max(t.MinLeaf, 1)
	n, p := len(c.y), len(c.x)
	if draws == nil {
		draws = make([]int, n)
		for r := range draws {
			draws[r] = r
		}
	}
	g := &grower{t: t, c: c, w: make([]int, n), sorted: make([][]int, p), draws: draws,
		goLeft: make([]bool, n), buf: make([]int, len(draws)), features: make([]int, p)}
	for _, r := range draws {
		g.w[r]++
	}
	backing := make([]int, 0, n*p)
	for j, s := range c.sorted {
		start := len(backing)
		for _, r := range s {
			if g.w[r] > 0 {
				backing = append(backing, r)
			}
		}
		g.sorted[j] = backing[start:len(backing):len(backing)]
	}
	g.countsL, g.countsR = make([]float64, len(c.classes)), make([]float64, len(c.classes))
	t.root = g.node(0, len(backing)/max(p, 1), 0, len(draws), 0)
}

// node grows the subtree over sorted segments [lo, hi) and draws [dlo, dhi).
func (g *grower) node(lo, hi, dlo, dhi, depth int) *treeNode {
	t, y, draws := g.t, g.c.y, g.draws[dlo:dhi]
	mixed := func(r int) bool { return y[r] != y[draws[0]] }
	if len(draws) > t.MinLeaf && (t.MaxDepth <= 0 || depth < t.MaxDepth) && slices.ContainsFunc(draws[1:], mixed) {
		if feature, threshold, ok := g.bestSplit(lo, hi, len(draws)); ok {
			x := g.c.x[feature]
			for _, r := range g.sorted[feature][lo:hi] {
				g.goLeft[r] = x[r] <= threshold
			}
			if nL := g.partition(draws); nL > 0 && nL < len(draws) {
				mL := 0
				for _, s := range g.sorted {
					mL = g.partition(s[lo:hi])
				}
				return &treeNode{
					feature:   feature,
					threshold: threshold,
					left:      g.node(lo, lo+mL, dlo, dlo+nL, depth+1),
					right:     g.node(lo+mL, hi, dlo+nL, dhi, depth+1),
				}
			}
		}
	}
	return &treeNode{leaf: true, value: g.leafValue(draws)}
}

// partition stably moves s's rows that go left ahead of those that go right
// and returns how many go left.
func (g *grower) partition(s []int) int {
	right, k := g.buf[:0], 0
	for _, r := range s {
		if g.goLeft[r] {
			s[k] = r
			k++
		} else {
			right = append(right, r)
		}
	}
	copy(s[k:], right)
	return k
}

// bestSplit scans candidate features for the split minimizing weighted
// impurity (variance or Gini) over the node's n draws. A row drawn c times
// enters every sum c times, one copy after another, exactly as c adjacent
// copies of it would.
func (g *grower) bestSplit(lo, hi, n int) (feature int, threshold float64, ok bool) {
	t, y, w, class := g.t, g.c.y, g.w, g.c.class
	clf, countsL, countsR := t.Task == TreeClassification, g.countsL, g.countsR
	features := g.features
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(features) && t.rng != nil {
		t.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}
	best := math.Inf(1)
	for _, j := range features {
		// Incremental impurity scan over sorted order; a split falls only
		// between two rows with different x.
		x, rows := g.c.x[j], g.sorted[j][lo:hi]
		var sumL, sqL, sumR, sqR float64
		clear(countsL)
		clear(countsR)
		for _, r := range rows {
			for c := w[r]; c > 0; c-- {
				if clf {
					countsR[class[r]]++
				} else {
					sumR += y[r]
					sqR += float64(y[r] * y[r])
				}
			}
		}
		nL, nR := 0.0, float64(n)
		for k, r := range rows[:len(rows)-1] {
			for c := w[r]; c > 0; c-- {
				if clf {
					countsL[class[r]]++
					countsR[class[r]]--
				} else {
					sumL += y[r]
					sqL += float64(y[r] * y[r])
					sumR -= y[r]
					sqR -= float64(y[r] * y[r])
				}
				nL++
				nR--
			}
			next := rows[k+1]
			if x[r] == x[next] || int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
				continue
			}
			imp := sqL - sumL*sumL/nL + (sqR - sumR*sumR/nR) // left + right variance
			if clf {
				imp = float64(nL*gini(countsL, nL)) + float64(nR*gini(countsR, nR))
			}
			if imp < best {
				best, feature, threshold, ok = imp, j, (x[r]+x[next])/2, true
			}
		}
	}
	return feature, threshold, ok
}

// gini is 1 - sum p^2 over counts indexed by class, classes ascending, so
// an impurity's last bits never depend on iteration order.
func gini(counts []float64, n float64) float64 {
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= float64(p * p)
	}
	return g
}

// leafValue is the majority class (the smallest on a tie) or the mean
// target, summed in draw order.
func (g *grower) leafValue(draws []int) float64 {
	if g.t.Task == TreeClassification {
		counts := g.countsL
		clear(counts)
		for _, r := range draws {
			counts[g.c.class[r]]++
		}
		return g.c.classes[slices.Index(counts, slices.Max(counts))]
	}
	s := 0.0
	for _, r := range draws {
		s += g.c.y[r]
	}
	return s / float64(len(draws))
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
