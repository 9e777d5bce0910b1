package mlmodels

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coda/internal/dataset"
)

// knnMatchesSort fits a KNN of the task and k on train, predicts test, and
// reports the first prediction whose bits differ from refKNNPredict's, or
// "" when all agree.
func knnMatchesSort(t *testing.T, task KNNTask, k int, train, test *dataset.Dataset) string {
	t.Helper()
	m := NewKNN(task, k)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	got, err := m.Predict(test)
	if err != nil {
		t.Fatal(err)
	}
	want := refKNNPredict(m, test)
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Sprintf("task %d k=%d: row %d predicts %v, full sort %v", task, k, i, got[i], want[i])
		}
	}
	return ""
}

// classTargets is ds with its targets mapped onto three classes.
func classTargets(t *testing.T, ds *dataset.Dataset) *dataset.Dataset {
	t.Helper()
	y := make([]float64, len(ds.Y))
	for i, v := range ds.Y {
		y[i] = math.Floor(math.Mod(math.Abs(v), 3))
	}
	out, err := dataset.New(ds.X, y)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestKNNMatchesSort: Predict's top-k selection gives the full sort's bits,
// for both tasks and k from 1 to past the training rows, on untied data,
// on data whose distances tie (rounded features, and rows repeated with
// other targets), and on features that are NaN or infinite, whose
// distances are NaN or tie at +Inf.
func TestKNNMatchesSort(t *testing.T) {
	random, _ := regData(t, 31, 60)
	duplicated, _ := regData(t, 32, 60)
	for i := 30; i < 60; i++ {
		copy(duplicated.X.Row(i), duplicated.X.Row(i-30))
		duplicated.Y[i] = duplicated.Y[i-30] + 1
	}
	nonFinite, _ := regData(t, 33, 60)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Inf(1)} {
		nonFinite.X.Set(7*i, i, v)
		nonFinite.X.Set(7*i+31, (i+1)%4, v)
	}
	for name, ds := range map[string]*dataset.Dataset{
		"random": random, "tied": tiedData(t, 11, 60), "duplicated": duplicated, "non-finite": nonFinite,
	} {
		train := ds.SliceRange(0, 40)
		for _, k := range []int{1, 5, 39, 40, 45} {
			if msg := knnMatchesSort(t, KNNRegression, k, train, ds); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
			clf := classTargets(t, ds)
			if msg := knnMatchesSort(t, KNNClassification, k, clf.SliceRange(0, 40), clf); msg != "" {
				t.Errorf("%s: %s", name, msg)
			}
		}
	}
}

// FuzzKNNMatchesSort: on fuzzData's tables (ties, NaN, ±Inf and -0 are
// common), a KNN fitted on the first half of the rows predicts every row
// with the full sort's bits, for any k. A classifier with a NaN target is
// only run: every NaN is its own key in the vote map, so which one wins a
// tied vote is map iteration order, on both sides.
func FuzzKNNMatchesSort(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 0, 64, 0, 2, 0, 128, 0, 3, 0, 192, 0, 4, 0}, false, uint8(0))
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 5, 0, 1, 0, 9, 0, 2, 0, 3, 0, 2, 0, 2, 0, 1, 0, 1, 0}, false, uint8(1))
	f.Add([]byte{3, 10, 0, 20, 0, 30, 0, 40, 0, 5, 0, 25, 0, 35, 0, 45, 0, 1, 0, 7, 0, 9, 0, 200, 0, 255, 255, 3, 0, 8, 1, 6, 0}, true, uint8(2))
	f.Add([]byte{0, 254, 255, 3, 0, 253, 255, 2, 0, 252, 255, 1, 0, 0, 0, 4, 0, 255, 255, 6, 0, 254, 255, 7, 0}, false, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, clf bool, k uint8) {
		task, treeTask := KNNRegression, TreeRegression
		if clf {
			task, treeTask = KNNClassification, TreeClassification
		}
		ds := fuzzData(data, treeTask)
		if ds == nil {
			return
		}
		train := ds.SliceRange(0, (ds.NumSamples()+1)/2)
		kk := 1 + int(k)%(train.NumSamples()+2)
		if clf && slices.ContainsFunc(ds.Y, math.IsNaN) {
			m := NewKNN(task, kk)
			if err := m.Fit(train); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Predict(ds); err != nil {
				t.Fatal(err)
			}
			return
		}
		if msg := knnMatchesSort(t, task, kk, train, ds); msg != "" {
			t.Fatal(msg)
		}
	})
}

// BenchmarkKNNPredict is search-coop-grid's KNN unit predicting one fold:
// 320 training rows, 80 query rows, 6 features, k = 5.
func BenchmarkKNNPredict(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 400, Features: 6, Informative: 3, Noise: 3}, rng)
	if err != nil {
		b.Fatal(err)
	}
	train, test := ds.SliceRange(0, 320), ds.SliceRange(320, 400)
	m := NewKNN(KNNRegression, 5)
	if err := m.Fit(train); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Predict(test); err != nil {
			b.Fatal(err)
		}
	}
}
