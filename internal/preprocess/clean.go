package preprocess

import (
	"fmt"
	"math"

	"coda/internal/dataset"
)

// Outlier filtering is a row-dropping data-cleansing step (Section III), so
// it runs before pipelines rather than inside them: dropping rows at predict
// time would silently misalign predictions with inputs.

// FilterZScoreOutliers returns a copy of ds without rows where any feature
// lies more than threshold standard deviations from its column mean, plus
// the indices of the dropped rows. threshold must be positive.
func FilterZScoreOutliers(ds *dataset.Dataset, threshold float64) (*dataset.Dataset, []int, error) {
	if threshold <= 0 {
		return nil, nil, fmt.Errorf("preprocess: z-score threshold must be positive, got %v", threshold)
	}
	means := ds.X.ColMeans()
	stds := ds.X.ColStds()
	var keep, dropped []int
	for i := 0; i < ds.NumSamples(); i++ {
		out := false
		for j, v := range ds.X.Row(i) {
			if stds[j] == 0 {
				continue
			}
			if math.Abs(v-means[j])/stds[j] > threshold {
				out = true
				break
			}
		}
		if out {
			dropped = append(dropped, i)
		} else {
			keep = append(keep, i)
		}
	}
	return ds.Subset(keep), dropped, nil
}

// FilterIQROutliers returns a copy of ds without rows where any feature
// falls outside [Q1 - k*IQR, Q3 + k*IQR] for its column, plus the dropped
// row indices. k must be positive (1.5 is the Tukey convention).
func FilterIQROutliers(ds *dataset.Dataset, k float64) (*dataset.Dataset, []int, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("preprocess: IQR multiplier must be positive, got %v", k)
	}
	cols := ds.X.Cols()
	lo := make([]float64, cols)
	hi := make([]float64, cols)
	var q [2]float64
	for j := 0; j < cols; j++ {
		quantiles(ds.X.ColCopy(j), []float64{0.25, 0.75}, q[:])
		q1, q3 := q[0], q[1]
		iqr := q3 - q1
		lo[j] = q1 - float64(k*iqr)
		hi[j] = q3 + float64(k*iqr)
	}
	var keep, dropped []int
	for i := 0; i < ds.NumSamples(); i++ {
		out := false
		for j, v := range ds.X.Row(i) {
			if v < lo[j] || v > hi[j] {
				out = true
				break
			}
		}
		if out {
			dropped = append(dropped, i)
		} else {
			keep = append(keep, i)
		}
	}
	return ds.Subset(keep), dropped, nil
}

// DropRowsWithMissing removes rows containing any NaN feature or target,
// the simplest of Section III's data-cleansing options.
func DropRowsWithMissing(ds *dataset.Dataset) (*dataset.Dataset, []int) {
	var keep, dropped []int
	for i := 0; i < ds.NumSamples(); i++ {
		bad := false
		for _, v := range ds.X.Row(i) {
			if math.IsNaN(v) {
				bad = true
				break
			}
		}
		if !bad && ds.Y != nil && math.IsNaN(ds.Y[i]) {
			bad = true
		}
		if bad {
			dropped = append(dropped, i)
		} else {
			keep = append(keep, i)
		}
	}
	return ds.Subset(keep), dropped
}
