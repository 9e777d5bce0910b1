package metrics

import "fmt"

// Scorer names a metric, exposes its function, and records whether lower
// values are better. The TEG evaluation engine and the DARR use the Name as
// part of the agreed-upon scoring mechanism across cooperating clients.
type Scorer struct {
	Name  string
	Fn    func(y, yhat []float64) (float64, error)
	Lower bool // true when lower scores are better (errors), false for accuracy-like metrics
}

// Better reports whether score a is strictly better than b under this scorer.
func (s Scorer) Better(a, b float64) bool {
	if s.Lower {
		return a < b
	}
	return a > b
}

// ScorerByName resolves the metric names used throughout the paper:
// "rmse", "mse", "mae", "mape", "msle", "rmsle", "medae", "r2", "accuracy",
// "f1-score" (alias "f1"), "auc".
func ScorerByName(name string) (Scorer, error) {
	switch name {
	case "rmse":
		return Scorer{Name: name, Fn: RMSE, Lower: true}, nil
	case "mse":
		return Scorer{Name: name, Fn: MSE, Lower: true}, nil
	case "mae":
		return Scorer{Name: name, Fn: MAE, Lower: true}, nil
	case "mape":
		return Scorer{Name: name, Fn: MAPE, Lower: true}, nil
	case "msle":
		return Scorer{Name: name, Fn: MSLE, Lower: true}, nil
	case "rmsle":
		return Scorer{Name: name, Fn: RMSLE, Lower: true}, nil
	case "medae":
		return Scorer{Name: name, Fn: MedAE, Lower: true}, nil
	case "r2":
		return Scorer{Name: name, Fn: R2, Lower: false}, nil
	case "accuracy":
		return Scorer{Name: name, Fn: Accuracy, Lower: false}, nil
	case "f1-score", "f1":
		return Scorer{Name: name, Fn: F1, Lower: false}, nil
	case "auc":
		return Scorer{Name: name, Fn: AUC, Lower: false}, nil
	default:
		return Scorer{}, fmt.Errorf("metrics: unknown scorer %q", name)
	}
}
