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

	root  *treeNode
	width int        // the fitted dataset's features
	rng   *rand.Rand // Fit's feature shuffles when MaxFeatures is set; a forest passes its own
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

// SetParam implements core.Component; "max_depth", a whole number >= 0,
// and "min_leaf", one >= 1, are supported.
func (t *DecisionTree) SetParam(key string, v float64) error {
	switch key {
	case "max_depth":
		return setWhole(&t.MaxDepth, t.Name(), key, v, 0)
	case "min_leaf":
		return setWhole(&t.MinLeaf, t.Name(), key, v, 1)
	}
	return errUnknownParam(t.Name(), key)
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
	n := ds.NumSamples()
	if n == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", t.Name())
	}
	if t.Task != TreeRegression && t.Task != TreeClassification {
		return fmt.Errorf("mlmodels: %s unknown task %d", t.Name(), t.Task)
	}
	g := newGrower(newColumns(ds, t.Task), n)
	for r := range g.draws {
		g.draws[r] = r
	}
	g.grow(t, t.rng)
	return nil
}

// columns is a dataset laid out for CART: each feature as a contiguous
// column and its rows sorted once by cmpLess, ties in ascending row order.
// A forest Fit builds it once for all its trees.
type columns struct {
	x       [][]float64 // x[j][r] is row r's feature j
	sorted  [][]int     // sorted[j] is every row, ordered by x[j]
	y       []float64
	ysq     []float64 // regression: float64(y[r] * y[r])
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
	if task == TreeRegression {
		c.ysq = make([]float64, n)
		for r, v := range ds.Y {
			c.ysq[r] = float64(v * v)
		}
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

// grower grows trees on a columns, one at a time, and a forest's Fit grows
// all its trees with one. A node owns a segment of every sorted list (its
// distinct rows) and of the draw list (its draws, in draw order); a split
// stably partitions all of them, so no node sorts. Nodes come from a slab
// shared by every tree the grower grows.
type grower struct {
	t                *DecisionTree // the tree being grown
	rng              *rand.Rand    // its feature shuffles; nil = every feature
	c                *columns
	w                []int   // w[r]: how many times row r was drawn
	sorted           [][]int // c.sorted filtered to the drawn rows
	backing          []int   // sorted's storage, len(c.x) x len(c.y)
	draws            []int   // the rows the next tree grows on, repeats allowed
	goLeft           []bool  // the split being applied, by row
	buf              []int   // partition scratch
	features         []int
	countsL, countsR []float64
	slab             []treeNode
}

// nodeChunk is how many nodes a slab allocation holds.
const nodeChunk = 256

// newGrower returns a grower on c for trees of nDraws draws each.
func newGrower(c *columns, nDraws int) *grower {
	n, p := len(c.y), len(c.x)
	return &grower{c: c, w: make([]int, n), sorted: make([][]int, p), backing: make([]int, n*p),
		draws: make([]int, nDraws), goLeft: make([]bool, n), buf: make([]int, nDraws),
		features: make([]int, p), countsL: make([]float64, len(c.classes)), countsR: make([]float64, len(c.classes))}
}

// grow fits t on the rows of g.c named by g.draws, a bootstrap sample or
// every row once, drawing its feature shuffles from rng.
func (g *grower) grow(t *DecisionTree, rng *rand.Rand) {
	t.MinLeaf = max(t.MinLeaf, 1)
	g.t, g.rng = t, rng
	clear(g.w)
	for _, r := range g.draws {
		g.w[r]++
	}
	// A bootstrap leaves about a third of the rows out, so the filter is
	// written, like partition, without a branch on whether a row stays.
	k := 0
	for j, s := range g.c.sorted {
		start := k
		for _, r := range s {
			g.backing[k] = r
			k += b2i(g.w[r] > 0)
		}
		g.sorted[j] = g.backing[start:k:k]
	}
	t.root = g.node(0, k/max(len(g.sorted), 1), 0, len(g.draws), 0)
	t.width = len(g.c.x)
}

// newNode returns a zero node from the slab.
func (g *grower) newNode() *treeNode {
	if len(g.slab) == cap(g.slab) {
		g.slab = make([]treeNode, 0, nodeChunk)
	}
	g.slab = g.slab[:len(g.slab)+1]
	return &g.slab[len(g.slab)-1]
}

// node grows the subtree over sorted segments [lo, hi) and draws [dlo, dhi).
func (g *grower) node(lo, hi, dlo, dhi, depth int) *treeNode {
	t, y, draws := g.t, g.c.y, g.draws[dlo:dhi]
	nd := g.newNode()
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
				nd.feature, nd.threshold = feature, threshold
				nd.left = g.node(lo, lo+mL, dlo, dlo+nL, depth+1)
				nd.right = g.node(lo+mL, hi, dlo+nL, dhi, depth+1)
				return nd
			}
		}
	}
	nd.leaf, nd.value = true, g.leafValue(draws)
	return nd
}

// partition stably moves s's rows that go left ahead of those that go right
// and returns how many go left. Every row is written both to the left
// cursor and to the right scratch, and only the cursor its side names
// advances, so the loop has no branch on the side: a split sends rows
// either way about as often, and a branch on it mispredicts half the time.
// Inlined into node, the loop spilled its cursors to the stack (5% of a
// forest fit, BenchmarkForestFit).
//
//go:noinline
func (g *grower) partition(s []int) int {
	goLeft, right := g.goLeft, g.buf[:len(s)]
	k, m := 0, 0
	for _, r := range s {
		l := b2i(goLeft[r])
		s[k], right[m] = r, r
		k += l
		m += 1 - l
	}
	copy(s[k:], right[:m])
	return k
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// bestSplit scans candidate features for the split minimizing weighted
// impurity (variance or Gini) over the node's n draws.
func (g *grower) bestSplit(lo, hi, n int) (feature int, threshold float64, ok bool) {
	t := g.t
	features := g.features
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(features) && g.rng != nil {
		g.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}
	scan := g.varianceScan
	if t.Task == TreeClassification {
		scan = g.giniScan
	}
	best := math.Inf(1)
	for _, j := range features {
		if imp, thr, found := scan(g.c.x[j], g.sorted[j][lo:hi], n, best); found {
			best, feature, threshold, ok = imp, j, thr, true
		}
	}
	return feature, threshold, ok
}

// varianceScan runs over one feature's rows in sorted order and returns the
// first split below best by left + right sum of squared deviations, and its
// threshold; a split falls only between two rows with different x. A row
// drawn c times enters every sum c times, one copy after another, exactly
// as c adjacent copies of it would. The counts are exact in float64, so
// adding c to them is adding 1 c times.
func (g *grower) varianceScan(x []float64, rows []int, n int, best float64) (imp, threshold float64, found bool) {
	y, ysq, w, minLeaf := g.c.y, g.c.ysq, g.w, g.t.MinLeaf
	var sumL, sqL, sumR, sqR float64
	for _, r := range rows {
		for c := w[r]; c > 0; c-- {
			sumR += y[r]
			sqR += ysq[r]
		}
	}
	nL, nR := 0.0, float64(n)
	for k, r := range rows[:len(rows)-1] {
		for c := w[r]; c > 0; c-- {
			sumL += y[r]
			sqL += ysq[r]
			sumR -= y[r]
			sqR -= ysq[r]
		}
		nL += float64(w[r])
		nR -= float64(w[r])
		next := rows[k+1]
		if x[r] == x[next] || int(nL) < minLeaf || int(nR) < minLeaf {
			continue
		}
		if v := sqL - sumL*sumL/nL + (sqR - sumR*sumR/nR); v < best {
			best, imp, threshold, found = v, v, (x[r]+x[next])/2, true
		}
	}
	return imp, threshold, found
}

// giniScan is varianceScan with the count-weighted Gini impurity.
func (g *grower) giniScan(x []float64, rows []int, n int, best float64) (imp, threshold float64, found bool) {
	class, w, minLeaf, countsL, countsR := g.c.class, g.w, g.t.MinLeaf, g.countsL, g.countsR
	clear(countsL)
	clear(countsR)
	for _, r := range rows {
		countsR[class[r]] += float64(w[r])
	}
	nL, nR := 0.0, float64(n)
	for k, r := range rows[:len(rows)-1] {
		countsL[class[r]] += float64(w[r])
		countsR[class[r]] -= float64(w[r])
		nL += float64(w[r])
		nR -= float64(w[r])
		next := rows[k+1]
		if x[r] == x[next] || int(nL) < minLeaf || int(nR) < minLeaf {
			continue
		}
		if v := float64(nL*gini(countsL, nL)) + float64(nR*gini(countsR, nR)); v < best {
			best, imp, threshold, found = v, v, (x[r]+x[next])/2, true
		}
	}
	return imp, threshold, found
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
	if err := checkWidth(t.Name(), t.width, ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		out[i] = t.leaf(ds.X.Row(i))
	}
	return out, nil
}

// leaf is the value of the leaf row reaches.
func (t *DecisionTree) leaf(row []float64) float64 {
	node := t.root
	for !node.leaf {
		if row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.value
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
