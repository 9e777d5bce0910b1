package mlmodels

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// refCase is one estimator configuration fitted twice: by the presorted
// grower (Fit) and by the per-node-sort reference.
type refCase struct {
	name string
	mk   func() core.Estimator
	ref  func(m core.Estimator, ds *dataset.Dataset)
}

func treeCase(task TreeTask, depth, minLeaf, maxFeatures int, seed int64) refCase {
	return refCase{
		name: fmt.Sprintf("tree/task=%d/depth=%d/leaf=%d/mf=%d/seed=%d", task, depth, minLeaf, maxFeatures, seed),
		mk: func() core.Estimator {
			return &DecisionTree{Task: task, MaxDepth: depth, MinLeaf: minLeaf, MaxFeatures: maxFeatures, rng: rand.New(rand.NewSource(seed))}
		},
		ref: func(m core.Estimator, ds *dataset.Dataset) { refTreeFit(m.(*DecisionTree), ds) },
	}
}

func forestCase(task TreeTask, nTrees, depth, minLeaf int, seed int64) refCase {
	return refCase{
		name: fmt.Sprintf("forest/task=%d/trees=%d/depth=%d/leaf=%d/seed=%d", task, nTrees, depth, minLeaf, seed),
		mk: func() core.Estimator {
			return &RandomForest{Task: task, NTrees: nTrees, MaxDepth: depth, MinLeaf: minLeaf, Seed: seed}
		},
		ref: func(m core.Estimator, ds *dataset.Dataset) { refForestFit(m.(*RandomForest), ds) },
	}
}

// matchesReference fits c both ways on ds and reports the first prediction
// whose bits differ, or "" when all agree.
func matchesReference(t *testing.T, c refCase, ds *dataset.Dataset) string {
	t.Helper()
	got, want := c.mk(), c.mk()
	if err := got.Fit(ds); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	c.ref(want, ds)
	gp, err := got.Predict(ds)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	wp, err := want.Predict(ds)
	if err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	for i := range gp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			return fmt.Sprintf("%s: row %d predicts %v, reference %v", c.name, i, gp[i], wp[i])
		}
	}
	return ""
}

// TestTreeMatchesReference: the presorted grower predicts bit for bit what
// the per-node-sort reference does wherever no two rows with different
// targets tie on a feature, and on tied data for classification, whose
// impurities come from exact counts.
func TestTreeMatchesReference(t *testing.T) {
	reg, _ := regData(t, 21, 160)
	clf := clfData(t, 22, 160, 3)
	tiedClf := clfData(t, 23, 160, 4)
	for i := 0; i < tiedClf.NumSamples(); i++ {
		for j := 0; j < tiedClf.NumFeatures(); j++ {
			tiedClf.X.Set(i, j, math.Round(tiedClf.X.At(i, j)))
		}
	}
	var regCases, clfCases []refCase
	for _, depth := range []int{0, 3, 5} {
		for _, minLeaf := range []int{1, 4} {
			for _, mf := range []int{0, 2} {
				for seed := int64(1); seed <= 2; seed++ {
					regCases = append(regCases, treeCase(TreeRegression, depth, minLeaf, mf, seed))
					clfCases = append(clfCases, treeCase(TreeClassification, depth, minLeaf, mf, seed))
				}
			}
			for seed := int64(1); seed <= 3; seed++ {
				regCases = append(regCases, forestCase(TreeRegression, 8, depth, minLeaf, seed))
				clfCases = append(clfCases, forestCase(TreeClassification, 8, depth, minLeaf, seed))
			}
		}
	}
	for _, c := range regCases {
		if msg := matchesReference(t, c, reg); msg != "" {
			t.Error(msg)
		}
	}
	for _, c := range clfCases {
		for _, ds := range []*dataset.Dataset{clf, tiedClf} {
			if msg := matchesReference(t, c, ds); msg != "" {
				t.Error(msg)
			}
		}
	}
}

// giniTieData is 4 classes of 10 rows and two binary features whose splits
// have the same exact Gini impurity, class counts (1,1,4,9 | 9,9,6,1) and
// (4,1,1,9 | 6,9,9,1), so only the order the sum runs in picks one. Summed
// over classes ascending, feature 1's rounds lower.
func giniTieData(t *testing.T) *dataset.Dataset {
	t.Helper()
	leftA, leftB := []int{1, 1, 4, 9}, []int{4, 1, 1, 9}
	x := matrix.New(40, 2)
	y := make([]float64, 40)
	for c := 0; c < 4; c++ {
		for k := 0; k < 10; k++ {
			r := 10*c + k
			y[r] = float64(c)
			if k >= leftA[c] {
				x.Set(r, 0, 1)
			}
			if k >= leftB[c] {
				x.Set(r, 1, 1)
			}
		}
	}
	ds, err := dataset.New(x, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestGiniDeterministic: a 4-class tree's impurities no longer depend on
// map iteration order, so every fit picks the same split and predicts the
// same bits. (Summed over a map, about one fit in eight took feature 0.)
func TestGiniDeterministic(t *testing.T) {
	ds := giniTieData(t)
	first := uint64(0)
	for i := 0; i < 50; i++ {
		tree := NewDecisionTree(TreeClassification)
		tree.MaxDepth = 1
		if err := tree.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if tree.root.feature != 1 {
			t.Fatalf("fit %d split on feature %d, want 1", i, tree.root.feature)
		}
		p, err := tree.Predict(ds)
		if err != nil {
			t.Fatal(err)
		}
		h := bitsHash(p)
		if i == 0 {
			first = h
		} else if h != first {
			t.Fatalf("fit %d predicts hash %#x, fit 0 %#x", i, h, first)
		}
	}
}

// TestGiniAscendingOrder: one split's weighted impurity is the formula
// summed over classes ascending, bit for bit. The counts are chosen so
// that summing them in another order rounds differently.
func TestGiniAscendingOrder(t *testing.T) {
	left, right := []float64{3, 7, 11, 29}, []float64{13, 1, 17, 5}
	want := func(counts []float64, order []int) float64 {
		n := 0.0
		for _, c := range counts {
			n += c
		}
		g := 1.0
		for _, k := range order {
			p := counts[k] / n
			g -= p * p
		}
		return n * g
	}
	asc, desc := []int{0, 1, 2, 3}, []int{3, 2, 1, 0}
	got := 50*gini(left, 50) + 36*gini(right, 36)
	if exp := want(left, asc) + want(right, asc); math.Float64bits(got) != math.Float64bits(exp) {
		t.Fatalf("impurity %v, ascending formula %v", got, exp)
	}
	if other := want(left, desc) + want(right, desc); other == got {
		t.Fatal("fixture is order-insensitive: pick counts whose sum order shows in the bits")
	}
}

// fuzzData decodes a small dataset: the first byte picks 1-4 features, then
// each row is p features and a target, two bytes each. Values are
// int16/64 (so rows tie often enough to matter), except four codes that
// stand for NaN, +Inf, -Inf and -0. Classification targets are 0-2.
func fuzzData(data []byte, task TreeTask) *dataset.Dataset {
	if len(data) < 1 {
		return nil
	}
	p := 1 + int(data[0]%4)
	data = data[1:]
	n := min(len(data)/(2*(p+1)), 48)
	if n == 0 {
		return nil
	}
	value := func(u uint16) float64 {
		switch u {
		case 0xffff:
			return math.NaN()
		case 0xfffe:
			return math.Inf(1)
		case 0xfffd:
			return math.Inf(-1)
		case 0xfffc:
			return math.Copysign(0, -1)
		}
		return float64(int16(u)) / 64
	}
	x := matrix.New(n, p)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= p; j++ {
			u := binary.LittleEndian.Uint16(data[2*(i*(p+1)+j):])
			switch {
			case j < p:
				x.Set(i, j, value(u))
			case task == TreeClassification && u != 0xffff:
				y[i] = float64(u % 3)
			default:
				y[i] = value(u)
			}
		}
	}
	ds, _ := dataset.New(x, y)
	return ds
}

// tieClass reports whether ds has a NaN, and whether two rows tie on a
// feature with targets whose bits differ.
func tieClass(ds *dataset.Dataset) (hasNaN, mixedTie bool) {
	n := ds.NumSamples()
	for i := 0; i < n; i++ {
		hasNaN = hasNaN || math.IsNaN(ds.Y[i])
		for j := 0; j < ds.NumFeatures(); j++ {
			hasNaN = hasNaN || math.IsNaN(ds.X.At(i, j))
			for k := i + 1; k < n; k++ {
				if ds.X.At(i, j) == ds.X.At(k, j) {
					mixedTie = mixedTie || math.Float64bits(ds.Y[i]) != math.Float64bits(ds.Y[k])
				}
			}
		}
	}
	return hasNaN, mixedTie
}

// FuzzTreeMatchesReference: no input panics a tree or forest fit, NaN
// included; on NaN-free inputs whose tied rows share a target the grower
// matches the reference bit for bit.
func FuzzTreeMatchesReference(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 64, 0, 2, 0, 128, 0, 3, 0, 192, 0, 4, 0}, uint8(0), uint8(0), uint8(1), int64(1))
	f.Add([]byte{3, 10, 0, 20, 0, 30, 0, 40, 0, 5, 0, 25, 0, 35, 0, 45, 0, 1, 0, 7, 0, 9, 0, 200, 0, 255, 255, 3, 0, 8, 1, 6, 0}, uint8(1), uint8(2), uint8(1), int64(7))
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 5, 0, 1, 0, 9, 0, 254, 255, 3, 0, 253, 255, 2, 0, 252, 255, 1, 0}, uint8(0), uint8(3), uint8(2), int64(3))
	f.Add([]byte{2, 9, 1, 8, 2, 7, 3, 0, 0, 6, 4, 5, 5, 4, 6, 1, 0, 3, 7, 2, 8, 1, 9, 2, 0, 0, 10, 9, 11, 8, 12, 1, 0}, uint8(1), uint8(0), uint8(1), int64(11))
	f.Fuzz(func(t *testing.T, data []byte, clf, depth, minLeaf uint8, seed int64) {
		task := TreeRegression
		if clf%2 == 1 {
			task = TreeClassification
		}
		ds := fuzzData(data, task)
		if ds == nil {
			return
		}
		d, l := int(depth%6), int(minLeaf%4)
		cases := []refCase{
			treeCase(task, d, l, 0, seed),
			treeCase(task, d, l, 1, seed),
			forestCase(task, 3, d, l, seed),
		}
		hasNaN, mixedTie := tieClass(ds)
		for _, c := range cases {
			m := c.mk()
			if err := m.Fit(ds); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if _, err := m.Predict(ds); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			check := !hasNaN && (task == TreeClassification || !mixedTie)
			if check {
				if msg := matchesReference(t, c, ds); msg != "" {
					t.Fatal(msg)
				}
			}
		}
	})
}

// depthOf is a fitted tree's depth below n (0 for a single leaf).
func depthOf(n *treeNode) int {
	if n == nil || n.leaf {
		return 0
	}
	return 1 + max(depthOf(n.left), depthOf(n.right))
}

func countNodes(n *treeNode) int {
	if n == nil || n.leaf {
		return 1
	}
	return 1 + countNodes(n.left) + countNodes(n.right)
}

// TestForestFitAllocations: a forest fit allocates a fixed handful (the
// presorted columns, one grower for all its trees, the trees) plus one
// slab per nodeChunk nodes, so a return to an allocation per node or per
// tree fails: 30 trees are more than the handful's slack.
func TestForestFitAllocations(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are not exact under -race")
	}
	ds, _ := regData(t, 25, 320)
	const trees, fixed = 30, 20 // 18 at the time of writing
	f := NewRandomForest(TreeRegression, trees)
	f.MaxDepth = 8
	allocs := testing.AllocsPerRun(3, func() {
		if err := f.Fit(ds); err != nil {
			t.Fatal(err)
		}
	})
	nodes := 0
	for _, tree := range f.trees {
		nodes += countNodes(tree.root)
	}
	slabs := (nodes + nodeChunk - 1) / nodeChunk
	t.Logf("%d trees, %d nodes in %d slabs: %.0f allocs", trees, nodes, slabs, allocs)
	if limit := float64(fixed + slabs); allocs > limit {
		t.Fatalf("forest fit: %.0f allocs for %d nodes, limit %.0f", allocs, nodes, limit)
	}
}

// raceDetector reports whether this test binary was built with -race.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// BenchmarkForestFit is the forest search-coop-grid's units fit: 30 trees
// at depth 8 on 320 rows of 4 features.
func BenchmarkForestFit(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 320, Features: 4, Informative: 3, Noise: 0.5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	f := NewRandomForest(TreeRegression, 30)
	f.MaxDepth = 8
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := f.Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeFit is one unbounded regression tree on the same table.
func BenchmarkTreeFit(b *testing.B) {
	rng := rand.New(rand.NewSource(26))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 320, Features: 4, Informative: 3, Noise: 0.5}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := NewDecisionTree(TreeRegression).Fit(ds); err != nil {
			b.Fatal(err)
		}
	}
}
