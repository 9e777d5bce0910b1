package core_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/dataset"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// fuzzSearchGraph is the tree family under every scaler and selector
// chain: 4 scalers x {noop, selectkbest, covariance+pca} x {tree, forest}.
func fuzzSearchGraph() *core.Graph {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewNoOp()},
		[]core.Transformer{preprocess.NewSelectKBest(2)},
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(2)},
	)
	g.AddRegressionModels(
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 2),
	)
	return g
}

// fuzzValue maps a byte to a feature value from one of eight families, so
// that small inputs hold ties, values one ulp apart (half of whose
// midpoints round up to the larger), values whose midpoints overflow,
// infinities, signed zeros and subnormals.
func fuzzValue(b byte) float64 {
	v := float64(b & 31)
	switch b >> 5 {
	case 0:
		return v
	case 1:
		return 1 + v*0x1p-52
	case 2:
		return v * 1e307
	case 3:
		return -v / 4
	case 4:
		return math.Inf(int(b&1)*2 - 1)
	case 5:
		return math.Copysign(0, float64(int(b&1)*2-1))
	case 6:
		return v * 0x1p-1070
	}
	return v + 0.5
}

// fuzzSearchData builds a dataset from data: byte 0 gives the feature
// count p (1 to 4), the next p bytes each column's kind (constant, NaN or
// one value per cell), and every later run of p+1 bytes a row, its cells
// through fuzzValue and its target as a signed byte over 4. It has at
// most 40 rows, and nil means the input holds too few.
func fuzzSearchData(data []byte) *dataset.Dataset {
	if len(data) < 1 {
		return nil
	}
	p := 1 + int(data[0]%4)
	if len(data) < 1+p {
		return nil
	}
	kinds, data := data[1:1+p], data[1+p:]
	n := min(len(data)/(p+1), 40)
	if n < 6 {
		return nil
	}
	x, y := matrix.New(n, p), make([]float64, n)
	for i := range n {
		row := data[i*(p+1) : (i+1)*(p+1)]
		for j, kind := range kinds {
			switch kind % 4 {
			case 0:
				x.Set(i, j, fuzzValue(kind))
			case 1:
				x.Set(i, j, math.NaN())
			default:
				x.Set(i, j, fuzzValue(row[j]))
			}
		}
		y[i] = float64(int8(row[p])) / 4
	}
	ds, _ := dataset.New(x, y)
	return ds
}

// FuzzSearchMatchesReference: a search of the tree family over every
// scaler and selector chain, with the prefix cache, its memos and the
// trees shared across rank classes, scores every unit as a serial search
// without the cache does, bit for bit, failures included, on any data,
// split, parallelism and dispatch order — a nonzero perm shuffles the
// order Search hands units out in with that seed.
func FuzzSearchMatchesReference(f *testing.F) {
	// Column 0 holds a = 1+3*2^-52 and the next float, whose midpoint
	// rounds up to it; the targets split there. Every scaler but noop
	// spreads the two apart.
	adjacent := []byte{1, 2, 0}
	for i := range 24 {
		adjacent = append(adjacent, 0x23+byte(i%2), byte(i%5), byte(i%2)*40)
	}
	f.Add(adjacent, false, uint8(0), int64(1), int64(0))
	f.Add(adjacent, true, uint8(1), int64(2), int64(0))
	f.Add(adjacent, true, uint8(2), int64(2), int64(5))
	f.Fuzz(searchMatchesReference)
}

// searchMatchesReference is FuzzSearchMatchesReference's property on one
// input.
func searchMatchesReference(t *testing.T, data []byte, shuffle bool, par uint8, seed, perm int64) {
	ds := fuzzSearchData(data)
	if ds == nil {
		return
	}
	scorer, _ := metrics.ScorerByName("rmse")
	opts := core.SearchOptions{
		Splitter: crossval.KFold{K: 3, Shuffle: shuffle},
		Scorer:   scorer,
		ParamGrid: map[string][]float64{
			"randomforest__n_trees":   {1, 3},
			"randomforest__max_depth": {2, 0},
			"decisiontree__max_depth": {1, 0},
		},
		Seed: seed,
	}
	ref := opts
	ref.Parallelism, ref.DisablePrefixCache = 1, true
	want, wantErr := core.Search(context.Background(), fuzzSearchGraph(), ds, ref)
	opts.Parallelism = []int{1, 2, 4}[par%3]
	ctx := context.Background()
	if perm != 0 {
		ctx = core.WithDispatchPermutation(ctx, func(order []int) {
			rand.New(rand.NewSource(perm)).Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		})
	}
	got, err := core.Search(ctx, fuzzSearchGraph(), ds, opts)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("search error %v, reference %v", err, wantErr)
	}
	if err != nil {
		return
	}
	for i, u := range got.Units {
		w := want.Units[i]
		if u.Spec != w.Spec || u.Err != w.Err {
			t.Fatalf("unit %d: %s failed with %q, reference %s with %q", i, u.Spec, u.Err, w.Spec, w.Err)
		}
		if len(u.Scores) != len(w.Scores) {
			t.Fatalf("unit %d (%s): %d fold scores, reference %d", i, u.Spec, len(u.Scores), len(w.Scores))
		}
		for k := range u.Scores {
			if math.Float64bits(u.Scores[k]) != math.Float64bits(w.Scores[k]) {
				t.Fatalf("unit %d (%s) fold %d scores %v, reference %v", i, u.Spec, k, u.Scores[k], w.Scores[k])
			}
		}
	}
}
