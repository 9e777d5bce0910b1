package mlmodels

import (
	"fmt"
	"slices"

	"coda/internal/core"
	"coda/internal/dataset"
)

// KNNTask selects regression (neighbour mean) or classification (majority
// vote) for KNN.
type KNNTask int

// KNN tasks.
const (
	KNNRegression KNNTask = iota + 1
	KNNClassification
)

// KNN is a k-nearest-neighbours model with Euclidean distance.
type KNN struct {
	Task KNNTask
	K    int // neighbours (default 5)

	trainX [][]float64
	trainY []float64
}

// NewKNN returns an unfitted KNN with k neighbours.
func NewKNN(task KNNTask, k int) *KNN { return &KNN{Task: task, K: k} }

// Name implements core.Component.
func (m *KNN) Name() string {
	if m.Task == KNNClassification {
		return "knnclassifier"
	}
	return "knn"
}

// SetParam implements core.Component; "k", a whole number >= 1, is
// supported.
func (m *KNN) SetParam(key string, v float64) error {
	if key == "k" {
		return setWhole(&m.K, m.Name(), key, v, 1)
	}
	return errUnknownParam(m.Name(), key)
}

// Params implements core.Component.
func (m *KNN) Params() map[string]float64 { return map[string]float64{"k": float64(m.K)} }

// Clone implements core.Estimator.
func (m *KNN) Clone() core.Estimator { return &KNN{Task: m.Task, K: m.K} }

// Fit stores the training data.
func (m *KNN) Fit(ds *dataset.Dataset) error {
	if ds.Y == nil {
		return fmt.Errorf("mlmodels: %s requires targets", m.Name())
	}
	if ds.NumSamples() == 0 {
		return fmt.Errorf("mlmodels: %s on empty dataset", m.Name())
	}
	if m.K < 1 {
		m.K = 5
	}
	m.trainX = make([][]float64, ds.NumSamples())
	for i := range m.trainX {
		m.trainX[i] = ds.X.RowCopy(i)
	}
	m.trainY = append([]float64(nil), ds.Y...)
	return nil
}

// neighbour is one training row's distance to a query row, and its target.
type neighbour struct {
	dist float64
	y    float64
}

// Predict aggregates the K nearest training samples per row.
func (m *KNN) Predict(ds *dataset.Dataset) ([]float64, error) {
	if m.trainX == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, m.Name())
	}
	if err := checkWidth(m.Name(), len(m.trainX[0]), ds); err != nil {
		return nil, err
	}
	k := min(m.K, len(m.trainX))
	out := make([]float64, ds.NumSamples())
	nbs := make([]neighbour, len(m.trainX))
	top := make([]neighbour, 0, min(k+1, len(nbs)))
	for i := range out {
		row := ds.X.Row(i)
		nan := false
		for t, tr := range m.trainX {
			d := 0.0
			for j, v := range row {
				diff := v - tr[j]
				d += float64(diff * diff)
			}
			nbs[t] = neighbour{d, m.trainY[t]}
			nan = nan || d != d
		}
		near := nearest(nbs, top, k, nan)
		switch m.Task {
		case KNNClassification:
			votes := map[float64]int{}
			for _, n := range near {
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
			for _, n := range near {
				s += n.y
			}
			out[i] = s / float64(k)
		}
	}
	return out, nil
}

// nearest returns the k neighbours slices.SortFunc(nbs, by distance) would
// leave at the front of nbs, in that order. pdqsort is not stable, so where
// distances tie, the order it leaves them in reaches a regression's sum.
// nearest keeps the k+1 nearest in top (capacity k+1, or len(nbs) if
// smaller) by insertion. If their distances are pairwise distinct and no
// distance is NaN (nan), each of the first k positions holds the one
// neighbour whose distance ranks there, in the sort as here. Otherwise it
// sorts nbs, as Predict always did, and returns its front.
func nearest(nbs, top []neighbour, k int, nan bool) []neighbour {
	if !nan {
		m := cap(top)
		top = top[:0]
		for _, c := range nbs {
			if len(top) == m {
				if !(c.dist < top[m-1].dist) {
					continue
				}
				top = top[:m-1]
			}
			i := len(top)
			top = append(top, c)
			for ; i > 0 && c.dist < top[i-1].dist; i-- {
				top[i] = top[i-1]
			}
			top[i] = c
		}
		distinct := true
		for i := 1; i < m && distinct; i++ {
			distinct = top[i-1].dist < top[i].dist
		}
		if distinct {
			return top[:k]
		}
	}
	slices.SortFunc(nbs, func(a, b neighbour) int { return cmpLess(a.dist, b.dist) })
	return nbs[:k]
}
