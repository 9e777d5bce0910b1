package mlmodels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
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
// with the full sort's bits, for any k and either task, NaN targets too.
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

// TestBallotVotes: without NaN votes, ballot picks the winner the map vote
// KNN and forest Predict used before it picked, down to the sign of a
// zero, on random votes drawn from a few values with ±0 and ±Inf. NaN
// votes are one class, which loses a tie to a number.
func TestBallotVotes(t *testing.T) {
	nan, negZero := math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct {
		votes []float64
		want  float64
	}{
		{[]float64{nan, 1, nan}, nan},
		{[]float64{nan, 1, nan, 1}, 1},
		{[]float64{1, nan}, 1},
		{[]float64{0, negZero, 2}, negZero},
		{[]float64{negZero, 2, 0}, 0},
	} {
		var b ballot
		for _, v := range c.votes {
			b.add(v)
		}
		if got := b.winner(); math.Float64bits(got) != math.Float64bits(c.want) {
			t.Errorf("votes %v: ballot %v, want %v", c.votes, got, c.want)
		}
	}
	values := []float64{0, negZero, 1, 2, -3, math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(71))
	for range 2000 {
		votes := make([]float64, 1+rng.Intn(12))
		var b ballot
		for i := range votes {
			votes[i] = values[rng.Intn(len(values))]
			b.add(votes[i])
		}
		if got, want := b.winner(), refMapVote(votes); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("votes %v: ballot %v, map vote %v", votes, got, want)
		}
	}
}

// TestTiedNaNVotePredictsOneValue: classifiers whose targets include NaN
// predict the same bits in 50 fits where a NaN class ties a number. NaN
// votes are one class, and it loses the tie to the number. Every row is
// the same point, so a KNN's three nearest are the first three rows (NaN,
// 2 and 1, one vote each) and a tree is one leaf, its bootstrap's majority.
func TestTiedNaNVotePredictsOneValue(t *testing.T) {
	ds, err := dataset.New(matrix.New(4, 1), []float64{math.NaN(), 2, 1, math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	// A seed whose two trees' leaves are NaN and a number.
	seed := int64(-1)
	for s := int64(0); s < 100 && seed < 0; s++ {
		f := NewRandomForest(TreeClassification, 2)
		f.Seed = s
		if err := f.Fit(ds); err != nil {
			t.Fatal(err)
		}
		if a, b := f.trees[0].root.value, f.trees[1].root.value; math.IsNaN(a) != math.IsNaN(b) {
			seed = s
		}
	}
	if seed < 0 {
		t.Fatal("no seed in [0, 100) gives a forest whose two leaves tie NaN and a number")
	}
	for name, mk := range map[string]func() core.Estimator{
		"knn": func() core.Estimator { return NewKNN(KNNClassification, 3) },
		"forest": func() core.Estimator {
			f := NewRandomForest(TreeClassification, 2)
			f.Seed = seed
			return f
		},
	} {
		first := fitPredict(t, mk, ds)
		for range 49 {
			if got := fitPredict(t, mk, ds); bitsHash(got) != bitsHash(first) {
				t.Fatalf("%s: predicted %v, then %v", name, first, got)
			}
		}
		if math.IsNaN(first[0]) {
			t.Errorf("%s: a tie of NaN and a number voted NaN", name)
		}
	}
}
