package mlmodels

import (
	"hash/fnv"
	"math"
	"testing"

	"coda/internal/core"
	"coda/internal/dataset"
)

// tiedData is regData with every feature rounded to one decimal, so that
// many rows tie on a feature (and on a KNN distance) while their targets
// differ: the order a sort leaves ties in then reaches the predictions.
func tiedData(t *testing.T, seed int64, n int) *dataset.Dataset {
	t.Helper()
	ds, _ := regData(t, seed, n)
	for i := 0; i < ds.NumSamples(); i++ {
		for j := 0; j < ds.NumFeatures(); j++ {
			ds.X.Set(i, j, math.Round(ds.X.At(i, j)*10)/10)
		}
	}
	return ds
}

func bitsHash(vs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vs {
		u := math.Float64bits(v)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestSortPinsPredictionBits pins the predictions of the two models whose
// bits depend on how ties are ordered. KNN.Predict sorts per row with
// slices.SortFunc (pdqsort, strict <), and knn5 keeps the bits recorded
// before that replaced sort.Slice. A forest's trees presort each feature
// once with ties in ascending row order, so where rows with different
// targets tie, a split's sums run in row order; forest30 was re-recorded
// when that replaced the per-node pdqsort.
func TestSortPinsPredictionBits(t *testing.T) {
	ds := tiedData(t, 11, 300)
	for _, tc := range []struct {
		name string
		mk   func() core.Estimator
		want uint64
	}{
		{"forest30", func() core.Estimator { f := NewRandomForest(TreeRegression, 30); f.Seed = 42; return f }, 0x1e4b387ab6a0068e},
		{"knn5", func() core.Estimator { return NewKNN(KNNRegression, 5) }, 0x433358e1f63fa003},
	} {
		if got := bitsHash(fitPredict(t, tc.mk, ds)); got != tc.want {
			t.Errorf("%s: predictions hash %#x, recorded %#x", tc.name, got, tc.want)
		}
	}
}
