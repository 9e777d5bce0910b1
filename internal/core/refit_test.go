package core_test

import (
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
)

// TestEstimatorRefitIsFresh holds every estimator of the coop-grid and
// Fig 11 graphs to the Estimator contract a search leans on — it fits one
// clone per unit on every fold in turn: Fit discards any earlier fit. One
// instance fitted on fold 0 and then on fold 1 must predict fold 1's test
// rows with the bits of a fresh clone fitted on fold 1 alone. For the
// networks this is the re-initialised network against a new one.
func TestEstimatorRefitIsFresh(t *testing.T) {
	for _, c := range keyCases() {
		if c.name != "coop-grid" && c.name != "fig11" {
			continue
		}
		t.Run(c.name, func(t *testing.T) {
			ds := c.ds(t)
			splits, err := c.opts.Splitter.Splits(ds.NumSamples(), rand.New(rand.NewSource(c.opts.Seed)))
			if err != nil {
				t.Fatal(err)
			}
			if len(splits) < 2 {
				t.Fatalf("%d folds, want at least 2", len(splits))
			}
			seen := map[string]bool{}
			var names []string
			for _, path := range c.graph(t).Paths() {
				p, err := core.NewPipeline(path)
				if err != nil {
					t.Fatal(err)
				}
				name := p.Nodes[len(p.Nodes)-1].Name
				if seen[name] {
					continue
				}
				seen[name] = true
				names = append(names, name)
				train0, _ := foldThrough(t, p, ds.Subset(splits[0].Train), ds.Subset(splits[0].Test))
				train1, test1 := foldThrough(t, p, ds.Subset(splits[1].Train), ds.Subset(splits[1].Test))

				reused := p.Estimator().Clone()
				if err := reused.Fit(train0); err != nil {
					t.Fatalf("%s fold 0: %v", name, err)
				}
				fresh := p.Estimator().Clone()
				for _, e := range []core.Estimator{reused, fresh} {
					if err := e.Fit(train1); err != nil {
						t.Fatalf("%s fold 1: %v", name, err)
					}
				}
				got, err := reused.Predict(test1)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Predict(test1)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) || len(got) == 0 {
					t.Fatalf("%s: %d predictions, fresh clone %d", name, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s (%s) row %d: refitted %v, fresh clone %v", name, core.ComponentSpec(reused), i, got[i], want[i])
					}
				}
			}
			if len(seen) < 4 {
				t.Fatalf("%d estimators checked, want every model of the graph", len(seen))
			}
			t.Logf("refit is fresh for %v", names)
		})
	}
}

// foldThrough pushes one fold through p's transformer nodes as a search's
// fold step does: each transformer a fresh clone, fitted on the training
// rows as the transformers before it left them, then applied to both sides.
func foldThrough(t *testing.T, p *core.Pipeline, train, test *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	for _, n := range p.Nodes[:len(p.Nodes)-1] {
		for _, tr := range n.Transformers {
			tr = tr.Clone()
			if err := tr.Fit(train); err != nil {
				t.Fatal(err)
			}
			var err error
			if train, err = tr.Transform(train); err != nil {
				t.Fatal(err)
			}
			if test, err = tr.Transform(test); err != nil {
				t.Fatal(err)
			}
		}
	}
	return train, test
}
