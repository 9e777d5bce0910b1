package dataset

import (
	"fmt"
	"math/rand"

	"coda/internal/matrix"
)

// RegressionSpec configures MakeRegression.
type RegressionSpec struct {
	Samples     int     // number of rows
	Features    int     // total feature columns
	Informative int     // features that influence Y (<= Features)
	Noise       float64 // stddev of Gaussian noise added to Y
}

// MakeRegression generates a linear regression problem in the style of
// sklearn.datasets.make_regression: standard-normal features, a sparse
// ground-truth coefficient vector over the informative features, Gaussian
// label noise. It also returns the ground-truth coefficients (length
// Features; zero for uninformative columns).
func MakeRegression(spec RegressionSpec, rng *rand.Rand) (*Dataset, []float64, error) {
	if spec.Samples <= 0 || spec.Features <= 0 {
		return nil, nil, fmt.Errorf("dataset: regression spec needs positive samples/features, got %+v", spec)
	}
	if spec.Informative <= 0 || spec.Informative > spec.Features {
		spec.Informative = spec.Features
	}
	coef := make([]float64, spec.Features)
	for j := 0; j < spec.Informative; j++ {
		coef[j] = 100 * rng.Float64()
	}
	x := matrix.New(spec.Samples, spec.Features)
	y := make([]float64, spec.Samples)
	for i := 0; i < spec.Samples; i++ {
		row := x.Row(i)
		s := 0.0
		for j := range row {
			v := rng.NormFloat64()
			row[j] = v
			s += float64(v * coef[j])
		}
		y[i] = s + float64(spec.Noise*rng.NormFloat64())
	}
	names := make([]string, spec.Features)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	return &Dataset{X: x, Y: y, ColNames: names, TargetName: "y"}, coef, nil
}

// ClassificationSpec configures MakeClassification.
type ClassificationSpec struct {
	Samples    int
	Features   int
	Classes    int     // >= 2
	ClusterSep float64 // distance between class centroids (default 2)
	ClassFrac  []float64
	// ClassFrac optionally gives per-class sample fractions (must sum to
	// ~1) to create class imbalance; nil means balanced classes.
}

// MakeClassification generates a Gaussian-blob classification problem: one
// centroid per class at distance ClusterSep along random directions, unit
// spherical noise around each centroid. Labels are 0..Classes-1 in Y.
func MakeClassification(spec ClassificationSpec, rng *rand.Rand) (*Dataset, error) {
	if spec.Samples <= 0 || spec.Features <= 0 {
		return nil, fmt.Errorf("dataset: classification spec needs positive samples/features, got %+v", spec)
	}
	if spec.Classes < 2 {
		spec.Classes = 2
	}
	if spec.ClusterSep == 0 {
		spec.ClusterSep = 2
	}
	if spec.ClassFrac != nil && len(spec.ClassFrac) != spec.Classes {
		return nil, fmt.Errorf("dataset: ClassFrac has %d entries for %d classes", len(spec.ClassFrac), spec.Classes)
	}
	centroids := matrix.New(spec.Classes, spec.Features)
	for c := 0; c < spec.Classes; c++ {
		for j := 0; j < spec.Features; j++ {
			centroids.Set(c, j, spec.ClusterSep*rng.NormFloat64())
		}
	}
	x := matrix.New(spec.Samples, spec.Features)
	y := make([]float64, spec.Samples)
	for i := 0; i < spec.Samples; i++ {
		c := i % spec.Classes
		if spec.ClassFrac != nil {
			u := rng.Float64()
			acc := 0.0
			for k, f := range spec.ClassFrac {
				acc += f
				if u <= acc {
					c = k
					break
				}
				c = k
			}
		}
		row := x.Row(i)
		for j := range row {
			row[j] = centroids.At(c, j) + rng.NormFloat64()
		}
		y[i] = float64(c)
	}
	names := make([]string, spec.Features)
	for j := range names {
		names[j] = fmt.Sprintf("x%d", j)
	}
	ds := &Dataset{X: x, Y: y, ColNames: names, TargetName: "class"}
	return ds.Subset(rng.Perm(ds.NumSamples())), nil
}
