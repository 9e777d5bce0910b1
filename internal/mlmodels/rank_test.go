package mlmodels

import (
	"math"
	"slices"
	"testing"

	"coda/internal/dataset"
	"coda/internal/matrix"
)

// oneColumn is a dataset of one feature, x, and targets y.
func oneColumn(t *testing.T, x, y []float64) *dataset.Dataset {
	t.Helper()
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{v}
	}
	m, err := matrix.NewFromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.New(m, y)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// treeBits fits an unbounded regression tree on fit and returns its
// predictions on test as bits.
func treeBits(t *testing.T, fit, test *dataset.Dataset) []uint64 {
	t.Helper()
	tree := NewDecisionTree(TreeRegression)
	if err := tree.Fit(fit); err != nil {
		t.Fatal(err)
	}
	yhat, err := tree.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	bits := make([]uint64, len(yhat))
	for i, v := range yhat {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// rankCase is a dataset fitted, in order, beside others that share one
// memo, and how many plain trees its fit grows there: 0 for a tree
// re-thresholded from another dataset's.
type rankCase struct {
	name  string
	ds    *dataset.Dataset
	grows int64
}

// fitShared fits a tree and a forest on each case's dataset, in order,
// every dataset carrying a memo of its own and one memo they share, and
// requires each fit to predict a fresh fit's bits on its own rows and
// each tree fit to grow what the case says.
func fitShared(t *testing.T, cases []rankCase) {
	t.Helper()
	shared := new(dataset.Memo)
	for _, c := range cases {
		ds := c.ds.WithMemo(shared)
		before := treeFits.Load()
		got := treeBits(t, ds, c.ds)
		if grown := treeFits.Load() - before; grown != c.grows {
			t.Errorf("%s: the tree fit grew %d trees, want %d", c.name, grown, c.grows)
		}
		if !slices.Equal(got, treeBits(t, c.ds, c.ds)) {
			t.Errorf("%s: the tree predicts other bits than a fresh fit", c.name)
		}
		forest := func() *RandomForest {
			f := NewRandomForest(TreeRegression, 8)
			f.Seed = 5
			return f
		}
		if !slices.Equal(forestBits(t, forest(), ds, c.ds), forestBits(t, forest(), c.ds, c.ds)) {
			t.Errorf("%s: the forest predicts other bits than a fresh fit", c.name)
		}
	}
}

// TestRankClassSharesTrees: datasets whose columns rank alike share one
// grown tree, each re-thresholding it on its own values. Here the best
// split falls between rows 2 and 3. In rounds, (x2+x3)/2 lies strictly
// between them; in adjacent, x2 and x3 are adjacent floats whose midpoint
// rounds up to x3, so a fit there sends row 3 left and grows another
// tree. Either way every fit predicts a fresh fit's bits: rounds and
// doubled through the shared tree, adjacent through a fit of its own, and,
// when adjacent grows first, every other dataset through its own too.
func TestRankClassSharesTrees(t *testing.T) {
	y := []float64{0, 0, 0, 10, 10, 10}
	a := 1 + 0x1p-52 // odd mantissa: a+next rounds to even, up
	next := math.Nextafter(a, 2)
	if (a+next)/2 != next {
		t.Fatalf("the midpoint of %v and %v is %v, want it rounded up", a, next, (a+next)/2)
	}
	rounds := oneColumn(t, []float64{0, 0.5, 1, 2, 3, 4}, y)
	adjacent := oneColumn(t, []float64{0, 0.5, a, next, 3, 4}, y)
	doubled := oneColumn(t, []float64{0, 1, 2, 4, 6, 8}, y)
	fitShared(t, []rankCase{{"rounds", rounds, 1}, {"adjacent", adjacent, 1}, {"doubled", doubled, 0}})
	fitShared(t, []rankCase{{"adjacent", adjacent, 1}, {"rounds", rounds, 1}, {"doubled", doubled, 1}})
}

// TestRankClassesKeepTiesAndTargets: a dataset shares no tree with one
// whose presorted row order is its own but whose ties are not (a fit on
// untied sees a split between rows 0 and 1 that tied never scanned), nor
// with one of other targets; and a column holding NaN shares nothing.
func TestRankClassesKeepTiesAndTargets(t *testing.T) {
	y := []float64{0, 10, 10, 10, 0}
	tied := oneColumn(t, []float64{1, 1, 3, 4, 5}, y)
	untied := oneColumn(t, []float64{1, 2, 3, 4, 5}, y)
	otherY := oneColumn(t, []float64{1, 2, 3, 4, 5}, []float64{0, 0, 10, 10, 10})
	fitShared(t, []rankCase{{"tied", tied, 1}, {"untied", untied, 1}, {"other targets", otherY, 1}})
	nan := oneColumn(t, []float64{1, math.NaN(), 3, 4, 5}, y)
	fitShared(t, []rankCase{{"NaN", nan, 1}, {"NaN again", nan, 1}})
}
