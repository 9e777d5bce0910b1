package mlmodels

import (
	"math"
	"slices"
	"sync"
	"testing"

	"coda/internal/dataset"
)

// forestBits fits f on fit and returns its predictions on test as bits,
// or nil after reporting an error. It may run on any goroutine.
func forestBits(t *testing.T, f *RandomForest, fit, test *dataset.Dataset) []uint64 {
	if err := f.Fit(fit); err != nil {
		t.Error(err)
		return nil
	}
	yhat, err := f.Predict(test)
	if err != nil {
		t.Error(err)
		return nil
	}
	bits := make([]uint64, len(yhat))
	for i, v := range yhat {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestForestsShareGrowth: on one dataset that carries a memo, forests of
// one seed and shape that differ only in n_trees grow one sequence of
// trees between them — its longest forest's count, in whatever order they
// are fitted, and when two are fitted at once — and each predicts the bits
// a fresh fit on a plain dataset predicts, for both tasks.
func TestForestsShareGrowth(t *testing.T) {
	reg, _ := regData(t, 61, 120)
	for name, ds := range map[string]*dataset.Dataset{"regression": reg, "classification": clfData(t, 62, 120, 3)} {
		task := TreeRegression
		if name == "classification" {
			task = TreeClassification
		}
		forest := func(n int) *RandomForest {
			f := NewRandomForest(task, n)
			f.MaxDepth, f.Seed = 6, 9
			return f
		}
		want := map[int][]uint64{}
		for _, n := range []int{10, 20, 30} {
			want[n] = forestBits(t, forest(n), ds, ds)
		}
		check := func(order string, n int, got []uint64) {
			if !slices.Equal(got, want[n]) {
				t.Errorf("%s, order %s: the %d-tree forest predicts other bits than a fresh fit", name, order, n)
			}
		}
		for order, ns := range map[string][]int{"30,10,20": {30, 10, 20}, "10,20,30": {10, 20, 30}} {
			memo := ds.WithMemo(nil)
			before := treesGrown.Load()
			for _, n := range ns {
				check(order, n, forestBits(t, forest(n), memo, ds))
			}
			if grown := treesGrown.Load() - before; grown != 30 {
				t.Errorf("%s, order %s: %d trees grown, want 30", name, order, grown)
			}
		}
		memo := ds.WithMemo(nil)
		before := treesGrown.Load()
		var wg sync.WaitGroup
		got := make([][]uint64, 31)
		for _, n := range []int{30, 10} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[n] = forestBits(t, forest(n), memo, ds)
			}()
		}
		wg.Wait()
		check("concurrent", 30, got[30])
		check("concurrent", 10, got[10])
		if grown := treesGrown.Load() - before; grown != 30 {
			t.Errorf("%s, concurrent: %d trees grown, want 30", name, grown)
		}
	}
}

// TestOtherForestsDoNotShare: forests that differ in max_depth, min_leaf,
// seed or task grow trees of their own on a dataset that carries a memo,
// and each predicts a fresh fit's bits; one that differs only in n_trees
// grows none.
func TestOtherForestsDoNotShare(t *testing.T) {
	ds, _ := regData(t, 63, 100)
	memo := ds.WithMemo(nil)
	base := func() *RandomForest {
		f := NewRandomForest(TreeRegression, 10)
		f.MaxDepth, f.MinLeaf, f.Seed = 5, 2, 3
		return f
	}
	for _, c := range []struct {
		name   string
		change func(f *RandomForest)
		grows  int64
	}{
		{"base", func(*RandomForest) {}, 10},
		{"max_depth", func(f *RandomForest) { f.MaxDepth = 6 }, 10},
		{"min_leaf", func(f *RandomForest) { f.MinLeaf = 1 }, 10},
		{"seed", func(f *RandomForest) { f.Seed = 4 }, 10},
		{"seed past 2^53", func(f *RandomForest) { f.Seed = 1<<60 + 1 }, 10},
		{"seed past 2^53, same float64", func(f *RandomForest) { f.Seed = 1<<60 + 2 }, 10},
		{"task", func(f *RandomForest) { f.Task = TreeClassification }, 10},
		{"n_trees", func(f *RandomForest) { f.NTrees = 7 }, 0},
	} {
		f, ref := base(), base()
		c.change(f)
		c.change(ref)
		before := treesGrown.Load()
		got := forestBits(t, f, memo, ds)
		if grown := treesGrown.Load() - before; grown != c.grows {
			t.Errorf("%s: %d trees grown, want %d", c.name, grown, c.grows)
		}
		if !slices.Equal(got, forestBits(t, ref, ds, ds)) {
			t.Errorf("%s: predicts other bits than a fresh fit", c.name)
		}
	}
}

// TestTreeFamilyPresortsOnce: every tree and forest of one task fitted on
// a dataset that carries a memo shares one presort, while each fit on a
// plain dataset makes its own.
func TestTreeFamilyPresortsOnce(t *testing.T) {
	ds, _ := regData(t, 64, 80)
	fits := func(on *dataset.Dataset) int64 {
		before := presorts.Load()
		for _, depth := range []int{3, 5} {
			tree := NewDecisionTree(TreeRegression)
			tree.MaxDepth = depth
			f := NewRandomForest(TreeRegression, 5)
			f.MaxDepth = depth
			for _, m := range []interface{ Fit(*dataset.Dataset) error }{tree, f} {
				if err := m.Fit(on); err != nil {
					t.Fatal(err)
				}
			}
		}
		return presorts.Load() - before
	}
	if n := fits(ds.WithMemo(nil)); n != 1 {
		t.Errorf("4 fits on a dataset with a memo presorted %d times, want 1", n)
	}
	if n := fits(ds); n != 4 {
		t.Errorf("4 fits on a plain dataset presorted %d times, want 4", n)
	}
}
