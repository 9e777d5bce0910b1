// Package metrics implements the model-scoring measures the paper lists for
// regression (RMSE, MSE, MAE, MAPE, R², MSLE, RMSLE, median absolute error)
// and classification (accuracy, precision, recall, F1, AUC), plus the Scorer
// descriptor used by the Transformer-Estimator Graph evaluation engine to
// name a metric and its optimization direction.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrLength is returned when prediction and truth vectors differ in length
// or are empty.
var ErrLength = errors.New("metrics: mismatched or empty vectors")

func check(y, yhat []float64) error {
	if len(y) == 0 || len(y) != len(yhat) {
		return fmt.Errorf("%w: len(y)=%d len(yhat)=%d", ErrLength, len(y), len(yhat))
	}
	return nil
}

// MSE returns the mean squared error.
func MSE(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range y {
		d := y[i] - yhat[i]
		s += float64(d * d)
	}
	return s / float64(len(y)), nil
}

// RMSE returns the root mean squared error.
func RMSE(y, yhat []float64) (float64, error) {
	m, err := MSE(y, yhat)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(m), nil
}

// MAE returns the mean absolute error.
func MAE(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range y {
		s += math.Abs(y[i] - yhat[i])
	}
	return s / float64(len(y)), nil
}

// MedAE returns the median absolute error.
func MedAE(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	abs := make([]float64, len(y))
	for i := range y {
		abs[i] = math.Abs(y[i] - yhat[i])
	}
	sort.Float64s(abs)
	n := len(abs)
	if n%2 == 1 {
		return abs[n/2], nil
	}
	return (abs[n/2-1] + abs[n/2]) / 2, nil
}

// MAPE returns the mean absolute percentage error, in percent. Entries with
// y == 0 are skipped; if all are zero an error is returned.
func MAPE(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	s, n := 0.0, 0
	for i := range y {
		if y[i] == 0 {
			continue
		}
		s += math.Abs((y[i] - yhat[i]) / y[i])
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: MAPE undefined, all targets are zero")
	}
	return 100 * s / float64(n), nil
}

// MSLE returns the mean squared logarithmic error. All values must be > -1.
func MSLE(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	s := 0.0
	for i := range y {
		if y[i] <= -1 || yhat[i] <= -1 {
			return 0, fmt.Errorf("metrics: MSLE needs values > -1, got y=%v yhat=%v at %d", y[i], yhat[i], i)
		}
		d := math.Log1p(y[i]) - math.Log1p(yhat[i])
		s += float64(d * d)
	}
	return s / float64(len(y)), nil
}

// RMSLE returns the root mean squared logarithmic error.
func RMSLE(y, yhat []float64) (float64, error) {
	m, err := MSLE(y, yhat)
	if err != nil {
		return 0, err
	}
	return math.Sqrt(m), nil
}

// R2 returns the coefficient of determination. A constant truth vector
// yields an error (undefined variance).
func R2(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(len(y))
	ssRes, ssTot := 0.0, 0.0
	for i := range y {
		d := y[i] - yhat[i]
		ssRes += float64(d * d)
		t := y[i] - mean
		ssTot += float64(t * t)
	}
	if ssTot == 0 {
		return 0, fmt.Errorf("metrics: R2 undefined for constant targets")
	}
	return 1 - ssRes/ssTot, nil
}

// Accuracy returns the fraction of exact label matches.
func Accuracy(y, yhat []float64) (float64, error) {
	if err := check(y, yhat); err != nil {
		return 0, err
	}
	hits := 0
	for i := range y {
		if y[i] == yhat[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(y)), nil
}

// PrecisionRecallF1 computes binary precision, recall and F1 for the
// positive class label 1. Degenerate denominators yield zeros, not errors,
// matching common ML-library behaviour.
func PrecisionRecallF1(y, yhat []float64) (precision, recall, f1 float64, err error) {
	if err := check(y, yhat); err != nil {
		return 0, 0, 0, err
	}
	var tp, fp, fn float64
	for i := range y {
		switch {
		case yhat[i] == 1 && y[i] == 1:
			tp++
		case yhat[i] == 1 && y[i] != 1:
			fp++
		case yhat[i] != 1 && y[i] == 1:
			fn++
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return precision, recall, f1, nil
}

// F1 returns only the binary F1 score for positive label 1.
func F1(y, yhat []float64) (float64, error) {
	_, _, f1, err := PrecisionRecallF1(y, yhat)
	return f1, err
}

// AUC returns the area under the ROC curve for binary labels in y (positive
// class 1) scored by yhat (higher = more positive). Ties are handled by the
// rank-sum (Mann-Whitney) formulation.
func AUC(y, score []float64) (float64, error) {
	if err := check(y, score); err != nil {
		return 0, err
	}
	type pair struct{ s, y float64 }
	pairs := make([]pair, len(y))
	for i := range y {
		pairs[i] = pair{score[i], y[i]}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].s < pairs[b].s })

	// Assign average ranks, handling ties.
	ranks := make([]float64, len(pairs))
	for i := 0; i < len(pairs); {
		j := i
		for j < len(pairs) && pairs[j].s == pairs[i].s {
			j++
		}
		avg := float64(i+j+1) / 2 // average of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = avg
		}
		i = j
	}
	var nPos, nNeg, rankSum float64
	for i, p := range pairs {
		if p.y == 1 {
			nPos++
			rankSum += ranks[i]
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0, fmt.Errorf("metrics: AUC needs both classes present (pos=%v neg=%v)", nPos, nNeg)
	}
	return (rankSum - float64(nPos*(nPos+1)/2)) / (nPos * nNeg), nil
}
