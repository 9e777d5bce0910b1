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

// SetParam implements core.Component; "k" is supported.
func (m *KNN) SetParam(key string, v float64) error {
	if key == "k" {
		m.K = int(v)
		return nil
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

// Predict aggregates the K nearest training samples per row.
func (m *KNN) Predict(ds *dataset.Dataset) ([]float64, error) {
	if m.trainX == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, m.Name())
	}
	if ds.NumFeatures() != len(m.trainX[0]) {
		return nil, fmt.Errorf("mlmodels: %s fitted with %d features, got %d", m.Name(), len(m.trainX[0]), ds.NumFeatures())
	}
	k := m.K
	if k > len(m.trainX) {
		k = len(m.trainX)
	}
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
	return out, nil
}
