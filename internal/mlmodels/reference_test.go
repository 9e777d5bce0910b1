package mlmodels

import (
	"math"
	"math/rand"
	"slices"

	"coda/internal/dataset"
)

// The per-node-sort CART grower the presorted one replaced, kept as the
// oracle it is checked against: every node copies its (x, y) pairs for each
// candidate feature, sorts them, and scans. Gini sums over classes in
// ascending order, as the grower's does.

func refTreeFit(t *DecisionTree, ds *dataset.Dataset) {
	if t.MinLeaf < 1 {
		t.MinLeaf = 1
	}
	idx := make([]int, ds.NumSamples())
	for i := range idx {
		idx[i] = i
	}
	t.root = refGrow(t, ds, idx, 0)
	t.width = ds.NumFeatures()
}

func refForestFit(f *RandomForest, ds *dataset.Dataset) {
	n := ds.NumSamples()
	rng := rand.New(rand.NewSource(f.Seed))
	maxFeatures := max(int(math.Sqrt(float64(ds.NumFeatures()))), 1)
	f.trees = make([]*DecisionTree, f.NTrees)
	idx := make([]int, n)
	for i := range f.trees {
		for k := range idx {
			idx[k] = rng.Intn(n)
		}
		boot := ds.Subset(idx)
		f.trees[i] = &DecisionTree{
			Task: f.Task, MaxDepth: f.MaxDepth, MinLeaf: f.MinLeaf, MaxFeatures: maxFeatures,
			rng: rand.New(rand.NewSource(rng.Int63())),
		}
		refTreeFit(f.trees[i], boot)
	}
}

func refGrow(t *DecisionTree, ds *dataset.Dataset, idx []int, depth int) *treeNode {
	if len(idx) <= t.MinLeaf || (t.MaxDepth > 0 && depth >= t.MaxDepth) || refPure(ds.Y, idx) {
		return &treeNode{leaf: true, value: refLeafValue(t, ds.Y, idx)}
	}
	feature, threshold, ok := refBestSplit(t, ds, idx)
	if !ok {
		return &treeNode{leaf: true, value: refLeafValue(t, ds.Y, idx)}
	}
	var left, right []int
	for _, i := range idx {
		if ds.X.At(i, feature) <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		return &treeNode{leaf: true, value: refLeafValue(t, ds.Y, idx)}
	}
	return &treeNode{
		feature:   feature,
		threshold: threshold,
		left:      refGrow(t, ds, left, depth+1),
		right:     refGrow(t, ds, right, depth+1),
	}
}

func refBestSplit(t *DecisionTree, ds *dataset.Dataset, idx []int) (feature int, threshold float64, ok bool) {
	features := make([]int, ds.NumFeatures())
	for j := range features {
		features[j] = j
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < len(features) && t.rng != nil {
		t.rng.Shuffle(len(features), func(a, b int) { features[a], features[b] = features[b], features[a] })
		features = features[:t.MaxFeatures]
	}
	best := math.Inf(1)
	type pair struct{ x, y float64 }
	pairs := make([]pair, len(idx))
	for _, j := range features {
		for k, i := range idx {
			pairs[k] = pair{ds.X.At(i, j), ds.Y[i]}
		}
		slices.SortFunc(pairs, func(a, b pair) int { return cmpLess(a.x, b.x) })
		switch t.Task {
		case TreeRegression:
			var sumL, sqL float64
			sumR, sqR := 0.0, 0.0
			for _, p := range pairs {
				sumR += p.y
				sqR += p.y * p.y
			}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				sumL += y
				sqL += y * y
				sumR -= y
				sqR -= y * y
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
					continue
				}
				varL := sqL - sumL*sumL/nL
				varR := sqR - sumR*sumR/nR
				if imp := varL + varR; imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		case TreeClassification:
			countsR := map[float64]float64{}
			for _, p := range pairs {
				countsR[p.y]++
			}
			countsL := map[float64]float64{}
			nL, nR := 0.0, float64(len(pairs))
			for k := 0; k < len(pairs)-1; k++ {
				y := pairs[k].y
				countsL[y]++
				countsR[y]--
				nL++
				nR--
				if pairs[k].x == pairs[k+1].x {
					continue
				}
				if int(nL) < t.MinLeaf || int(nR) < t.MinLeaf {
					continue
				}
				if imp := nL*refGini(countsL, nL) + nR*refGini(countsR, nR); imp < best {
					best = imp
					feature = j
					threshold = (pairs[k].x + pairs[k+1].x) / 2
					ok = true
				}
			}
		}
	}
	return feature, threshold, ok
}

// refGini is 1 - sum p^2 with the classes taken in ascending order, so the
// sum's rounding does not depend on map iteration order.
func refGini(counts map[float64]float64, n float64) float64 {
	classes := make([]float64, 0, len(counts))
	for v := range counts {
		classes = append(classes, v)
	}
	slices.Sort(classes)
	g := 1.0
	for _, v := range classes {
		p := counts[v] / n
		g -= p * p
	}
	return g
}

func refPure(y []float64, idx []int) bool {
	for _, i := range idx[1:] {
		if y[i] != y[idx[0]] {
			return false
		}
	}
	return true
}

func refLeafValue(t *DecisionTree, y []float64, idx []int) float64 {
	if t.Task == TreeClassification {
		counts := map[float64]int{}
		for _, i := range idx {
			counts[y[i]]++
		}
		best, bestN := 0.0, -1
		for v, n := range counts {
			if n > bestN || (n == bestN && v < best) {
				best, bestN = v, n
			}
		}
		return best
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

// refKNNPredict is KNN.Predict as it was before the top-k selection: every
// query row sorts all its neighbours with slices.SortFunc (pdqsort, strict
// <) and aggregates the first k.
func refKNNPredict(m *KNN, ds *dataset.Dataset) []float64 {
	k := min(m.K, len(m.trainX))
	out := make([]float64, ds.NumSamples())
	type nb struct {
		dist float64
		y    float64
	}
	nbs := make([]nb, len(m.trainX))
	for i := 0; i < ds.NumSamples(); i++ {
		row := ds.X.Row(i)
		for t, tr := range m.trainX {
			d := 0.0
			for j, v := range row {
				diff := v - tr[j]
				d += float64(diff * diff)
			}
			nbs[t] = nb{d, m.trainY[t]}
		}
		slices.SortFunc(nbs, func(a, b nb) int { return cmpLess(a.dist, b.dist) })
		switch m.Task {
		case KNNClassification:
			votes := map[float64]int{}
			for _, n := range nbs[:k] {
				votes[n.y]++
			}
			best, bestN := 0.0, -1
			for v, c := range votes {
				if c > bestN || (c == bestN && v < best) {
					best, bestN = v, c
				}
			}
			out[i] = best
		default:
			s := 0.0
			for _, n := range nbs[:k] {
				s += n.y
			}
			out[i] = s / float64(k)
		}
	}
	return out
}
