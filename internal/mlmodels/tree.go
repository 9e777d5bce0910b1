package mlmodels

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

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
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // leaf prediction
	feature   int32
	// last and first are a split's rows: the last that goes left and the
	// first that goes right, in the node's sorted list of the feature.
	last, first int32
	leaf        bool
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
	// ranked: every threshold fell strictly below its split's first row
	// right, so every split sent each row the way its rank named, and the
	// tree's shape follows from its columns' ranks alone (rethresholded).
	ranked bool
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

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (t *DecisionTree) FitCost(core.Shape) float64 { return 0 }

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
	t.MinLeaf = max(t.MinLeaf, 1) // as growing sets it, so a shared tree's fit reports it too
	c := presorted(ds, t.Task)
	if sig := rankSignature(ds, c); sig != "" && t.rng == nil {
		// The tree of this shape grown on some dataset of this rank
		// class, re-thresholded on this one's columns.
		src := dataset.SharedMemoized(ds, rankedKey{sig, t.shapeKey()}, func() *grownTree {
			g := &grownTree{t: t.shape(), on: c}
			g.t.grow(c)
			return g
		})
		if src.on == c {
			t.root, t.width, t.ranked = src.t.root, src.t.width, src.t.ranked
			return nil
		}
		if src.t.ranked {
			var slab nodeSlab
			if root := rethresholded(src.t.root, c.x, &slab); root != nil {
				t.root, t.width, t.ranked = root, src.t.width, true
				return nil
			}
		}
	}
	t.grow(c)
	return nil
}

// grow fits t on every row of c once.
func (t *DecisionTree) grow(c *columns) {
	treeFits.Add(1)
	g := newGrower(c, len(c.y))
	for r := range g.draws {
		g.draws[r] = r
	}
	g.grow(t, t.rng)
}

// shape is a copy of t's parameters, unfitted.
func (t *DecisionTree) shape() *DecisionTree {
	return &DecisionTree{Task: t.Task, MaxDepth: t.MaxDepth, MinLeaf: t.MinLeaf, MaxFeatures: t.MaxFeatures}
}

// shapeKey names the tree a fit of t's parameters grows on a rank class:
// its name and Params, and MaxFeatures, which Params leaves out.
func (t *DecisionTree) shapeKey() growthKey {
	b := appendParamKey(nil, t.Name(), t.Params(), "")
	return growthKey(strconv.AppendInt(append(b, " max_features="...), int64(t.MaxFeatures), 10))
}

// grownTree is a plain tree grown for a rank class, and the columns it
// was grown on, whose own fits take it as it is.
type grownTree struct {
	t  *DecisionTree
	on *columns
}

// presorts, treesGrown and treeFits count the columns built, the forest
// trees grown and the plain trees grown, so that tests can pin how much of
// that work the fits on one dataset, and on one rank class, share.
var presorts, treesGrown, treeFits atomic.Int64

// rankedKey names what fits share across the datasets of one rank class
// (rankSignature): a forest's growth or a plain tree, by shape. A Go map
// compares string keys in full, so two signatures that hash alike never
// share.
type rankedKey struct {
	sig   string
	shape growthKey
}

// signatureKey is a dataset's rank signature's memo key.
type signatureKey struct{}

// rankSignature is everything a CART fit reads of ds's columns and
// targets: the row and feature counts, every target's bits, and for each
// feature its presorted row order and, for each pair of neighbours in it,
// whether the two values tie. The scans compare values only for ties, so
// a ranked tree grown on one dataset of a signature makes the splits,
// between the same rows, that a fit on any other makes, and only the
// thresholds differ (rethresholded). Without NaN a tie is transitive
// along the order, so the flags of neighbours also say which rows of a
// node's filtered list tie. It is "" when ds shares no memo, where
// nothing would read it, and when a column holds NaN, which ties with
// nothing and breaks that.
func rankSignature(ds *dataset.Dataset, c *columns) string {
	if !ds.HasSharedMemo() {
		return ""
	}
	return dataset.Memoized(ds, signatureKey{}, func() string { return newSignature(c) })
}

func newSignature(c *columns) string {
	n, p := len(c.y), len(c.x)
	if n > math.MaxInt32 {
		return ""
	}
	var b strings.Builder
	b.Grow(16 + 8*n + p*(4*n+n/8+1))
	var buf [8]byte
	word := func(v uint64) { b.Write(binary.LittleEndian.AppendUint64(buf[:0], v)) }
	word(uint64(n))
	word(uint64(p))
	for _, v := range c.y {
		word(math.Float64bits(v))
	}
	for j, s := range c.sorted {
		x := c.x[j]
		for _, r := range s {
			if math.IsNaN(x[r]) {
				return ""
			}
			b.Write(binary.LittleEndian.AppendUint32(buf[:0], uint32(r)))
		}
		var ties byte // neighbour pair i's flag is bit i%8 of byte i/8
		for i := range n - 1 {
			ties |= byte(b2i(x[s[i]] == x[s[i+1]])) << (i % 8)
			if i%8 == 7 || i == n-2 {
				b.WriteByte(ties)
				ties = 0
			}
		}
	}
	return b.String()
}

// columns is a dataset laid out for CART: each feature as a contiguous
// column and its rows sorted once by cmpLess, ties in ascending row order.
// A forest grows all its trees on one, and every tree and forest fitted on
// a dataset that carries a memo shares one per task (presorted). Nothing
// writes to it once built.
type columns struct {
	x       [][]float64 // x[j][r] is row r's feature j
	sorted  [][]int     // sorted[j] is every row, ordered by x[j]
	y       []float64
	ysq     []float64 // regression: float64(y[r] * y[r])
	class   []int     // classification: y[r]'s index in classes
	classes []float64 // classification: the distinct targets, ascending
}

// presorted is ds's columns for task: built once per task on a dataset
// that carries a memo, and on every call on one that does not.
func presorted(ds *dataset.Dataset, task TreeTask) *columns {
	return dataset.Memoized(ds, task, func() *columns { return newColumns(ds, task) })
}

// cell is one value of a column beside its row, so the presort compares
// values it holds rather than loading them through row indices.
type cell struct {
	x float64
	r int
}

func newColumns(ds *dataset.Dataset, task TreeTask) *columns {
	presorts.Add(1)
	n, p := ds.NumSamples(), ds.NumFeatures()
	c := &columns{x: make([][]float64, p), sorted: make([][]int, p), y: ds.Y}
	xs, rows, cells := make([]float64, n*p), make([]int, n*p), make([]cell, n)
	for j := range p {
		x, s := xs[j*n:(j+1)*n:(j+1)*n], rows[j*n:(j+1)*n:(j+1)*n]
		for r := range x {
			x[r] = ds.X.At(r, j)
			cells[r] = cell{x[r], r}
		}
		// pdqsort's moves depend only on the comparisons' results, and
		// these are the ones sorting the row indices by x made, so the
		// order is that sort's.
		slices.SortFunc(cells, func(a, b cell) int { return cmp.Or(cmpLess(a.x, b.x), a.r-b.r) })
		for k, v := range cells {
			s[k] = v.r
		}
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
	slab             nodeSlab
	ranked           bool // every split of the tree so far is ranked
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
	g.ranked = true
	t.root = g.node(0, k/max(len(g.sorted), 1), 0, len(g.draws), 0)
	t.width, t.ranked = len(g.c.x), g.ranked
}

// nodeSlab hands out tree nodes nodeChunk at a time.
type nodeSlab []treeNode

// next returns a zero node from the slab.
func (s *nodeSlab) next() *treeNode {
	if len(*s) == cap(*s) {
		*s = make([]treeNode, 0, nodeChunk)
	}
	*s = (*s)[:len(*s)+1]
	return &(*s)[len(*s)-1]
}

// node grows the subtree over sorted segments [lo, hi) and draws [dlo, dhi).
func (g *grower) node(lo, hi, dlo, dhi, depth int) *treeNode {
	t, y, draws := g.t, g.c.y, g.draws[dlo:dhi]
	nd := g.slab.next()
	mixed := func(r int) bool { return y[r] != y[draws[0]] }
	if len(draws) > t.MinLeaf && (t.MaxDepth <= 0 || depth < t.MaxDepth) && slices.ContainsFunc(draws[1:], mixed) {
		if feature, last, first, ok := g.bestSplit(lo, hi, len(draws)); ok {
			x := g.c.x[feature]
			threshold := (x[last] + x[first]) / 2
			// Below x[first], the threshold sends each row the way its
			// rank names; rounded up to it (adjacent floats), overflowed
			// or NaN, it sends rows by their values.
			g.ranked = g.ranked && x[last] <= threshold && threshold < x[first]
			for _, r := range g.sorted[feature][lo:hi] {
				g.goLeft[r] = x[r] <= threshold
			}
			if nL := g.partition(draws); nL > 0 && nL < len(draws) {
				mL := 0
				for _, s := range g.sorted {
					mL = g.partition(s[lo:hi])
				}
				nd.feature, nd.threshold, nd.last, nd.first = int32(feature), threshold, int32(last), int32(first)
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
// impurity (variance or Gini) over the node's n draws, and returns its
// rows: the last left and the first right in the feature's sorted list.
func (g *grower) bestSplit(lo, hi, n int) (feature, last, first int, ok bool) {
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
		rows := g.sorted[j][lo:hi]
		if imp, k, found := scan(g.c.x[j], rows, n, best); found {
			best, feature, last, first, ok = imp, j, rows[k], rows[k+1], true
		}
	}
	return feature, last, first, ok
}

// varianceScan runs over one feature's rows in sorted order and returns the
// first split below best by left + right sum of squared deviations, and the
// position of its last row left; a split falls only between two rows with
// different x. A row
// drawn c times enters every sum c times, one copy after another, exactly
// as c adjacent copies of it would. The counts are exact in float64, so
// adding c to them is adding 1 c times.
func (g *grower) varianceScan(x []float64, rows []int, n int, best float64) (imp float64, at int, found bool) {
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
			best, imp, at, found = v, v, k, true
		}
	}
	return imp, at, found
}

// giniScan is varianceScan with the count-weighted Gini impurity.
func (g *grower) giniScan(x []float64, rows []int, n int, best float64) (imp float64, at int, found bool) {
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
			best, imp, at, found = v, v, k, true
		}
	}
	return imp, at, found
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

// rethresholded copies the ranked subtree at nd onto the columns x of another
// dataset of its rank class, its nodes from slab: each threshold is the
// midpoint of x's values at the split's rows, as a fit on x computes it.
// It is nil when a threshold would not fall strictly below its first row
// right (rethresholded values that are adjacent floats, or overflow), since a
// fit on x would then send rows by their values and grow another tree.
func rethresholded(nd *treeNode, x [][]float64, slab *nodeSlab) *treeNode {
	out := slab.next()
	*out = *nd
	if nd.leaf {
		return out
	}
	col := x[nd.feature]
	a, b := col[nd.last], col[nd.first]
	if out.threshold = (a + b) / 2; !(a <= out.threshold && out.threshold < b) {
		return nil
	}
	if out.left = rethresholded(nd.left, x, slab); out.left == nil {
		return nil
	}
	if out.right = rethresholded(nd.right, x, slab); out.right == nil {
		return nil
	}
	return out
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
