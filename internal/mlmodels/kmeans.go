package mlmodels

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/matrix"
)

// KMeans clusters rows into K groups by Lloyd's algorithm with k-means++
// initialization. As an Estimator, Predict returns the cluster index per
// row; the Cohort Analysis solution template builds on it.
type KMeans struct {
	K        int   // clusters (>= 1)
	MaxIters int   // Lloyd iterations (default 100)
	NInit    int   // independent restarts, best inertia wins (default 5)
	Seed     int64 // rng seed

	centroids *matrix.Matrix
}

// NewKMeans returns an unfitted clusterer with k clusters.
func NewKMeans(k int) *KMeans { return &KMeans{K: k, MaxIters: 100, NInit: 5} }

// Name implements core.Component.
func (m *KMeans) Name() string { return "kmeans" }

// SetParam implements core.Component; "k", "max_iters", "n_init" and
// "seed" are supported, the first three whole numbers >= 1.
func (m *KMeans) SetParam(key string, v float64) error {
	switch key {
	case "k":
		return setWhole(&m.K, m.Name(), key, v, 1)
	case "max_iters":
		return setWhole(&m.MaxIters, m.Name(), key, v, 1)
	case "n_init":
		return setWhole(&m.NInit, m.Name(), key, v, 1)
	case "seed":
		m.Seed = int64(v)
	default:
		return errUnknownParam(m.Name(), key)
	}
	return nil
}

// Params implements core.Component.
func (m *KMeans) Params() map[string]float64 {
	return map[string]float64{
		"k": float64(m.K), "max_iters": float64(m.MaxIters),
		"n_init": float64(m.NInit), "seed": float64(m.Seed),
	}
}

// Clone implements core.Estimator.
func (m *KMeans) Clone() core.Estimator {
	return &KMeans{K: m.K, MaxIters: m.MaxIters, NInit: m.NInit, Seed: m.Seed}
}

// FitCost implements core.Estimator: it states no cost, so units of it keep
// plan order among themselves.
func (m *KMeans) FitCost(core.Shape) float64 { return 0 }

// Fit runs NInit independent k-means++/Lloyd restarts and keeps the
// clustering with the lowest inertia (within-cluster sum of squares).
// Y is ignored.
func (m *KMeans) Fit(ds *dataset.Dataset) error {
	n := ds.NumSamples()
	if m.K < 1 || m.K > n {
		return fmt.Errorf("mlmodels: kmeans K=%d invalid for %d samples", m.K, n)
	}
	if m.MaxIters < 1 {
		m.MaxIters = 100
	}
	if m.NInit < 1 {
		m.NInit = 5
	}
	seeds := rand.New(matrix.NewRand(m.Seed))
	src := new(matrix.Rand)
	rng := rand.New(src)
	best := math.Inf(1)
	var bestCentroids *matrix.Matrix
	for restart := 0; restart < m.NInit; restart++ {
		src.Seed(seeds.Int63())
		centroids := m.runOnce(ds, rng)
		inertia := 0.0
		for i := 0; i < n; i++ {
			d := math.Inf(1)
			for c := 0; c < centroids.Rows(); c++ {
				if v := sqDist(ds.X.Row(i), centroids.Row(c)); v < d {
					d = v
				}
			}
			inertia += d
		}
		if inertia < best {
			best = inertia
			bestCentroids = centroids
		}
	}
	m.centroids = bestCentroids
	return nil
}

// runOnce performs one k-means++ seeding plus Lloyd refinement.
func (m *KMeans) runOnce(ds *dataset.Dataset, rng *rand.Rand) *matrix.Matrix {
	n, p := ds.NumSamples(), ds.NumFeatures()

	// k-means++ seeding.
	centroids := matrix.New(m.K, p)
	first := rng.Intn(n)
	copy(centroids.Row(0), ds.X.Row(first))
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = sqDist(ds.X.Row(i), centroids.Row(0))
	}
	for c := 1; c < m.K; c++ {
		total := 0.0
		for _, d := range minDist {
			total += d
		}
		pick := 0
		if total > 0 {
			u := rng.Float64() * total
			acc := 0.0
			for i, d := range minDist {
				acc += d
				if acc >= u {
					pick = i
					break
				}
			}
		} else {
			pick = rng.Intn(n)
		}
		copy(centroids.Row(c), ds.X.Row(pick))
		for i := range minDist {
			if d := sqDist(ds.X.Row(i), centroids.Row(c)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	assign := make([]int, n)
	for iter := 0; iter < m.MaxIters; iter++ {
		changed := false
		for i := 0; i < n; i++ {
			best, bestD := 0, math.Inf(1)
			for c := 0; c < m.K; c++ {
				if d := sqDist(ds.X.Row(i), centroids.Row(c)); d < bestD {
					best, bestD = c, d
				}
			}
			if assign[i] != best {
				assign[i] = best
				changed = true
			}
		}
		if !changed && iter > 0 {
			break
		}
		counts := make([]int, m.K)
		next := matrix.New(m.K, p)
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			dst := next.Row(c)
			for j, v := range ds.X.Row(i) {
				dst[j] += v
			}
		}
		for c := 0; c < m.K; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster at a random point.
				copy(next.Row(c), ds.X.Row(rng.Intn(n)))
				continue
			}
			dst := next.Row(c)
			for j := range dst {
				dst[j] /= float64(counts[c])
			}
		}
		centroids = next
	}
	return centroids
}

// Predict returns the nearest-centroid index per row.
func (m *KMeans) Predict(ds *dataset.Dataset) ([]float64, error) {
	if m.centroids == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFitted, m.Name())
	}
	if err := checkWidth(m.Name(), m.centroids.Cols(), ds); err != nil {
		return nil, err
	}
	out := make([]float64, ds.NumSamples())
	for i := range out {
		best, bestD := 0, math.Inf(1)
		for c := 0; c < m.centroids.Rows(); c++ {
			if d := sqDist(ds.X.Row(i), m.centroids.Row(c)); d < bestD {
				best, bestD = c, d
			}
		}
		out[i] = float64(best)
	}
	return out, nil
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return s
}
