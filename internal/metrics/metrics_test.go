package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRegressionMetricsKnownValues(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	yhat := []float64{1, 2, 3, 4}
	tests := []struct {
		name string
		fn   func(y, yhat []float64) (float64, error)
		want float64
	}{
		{"mse", MSE, 0},
		{"rmse", RMSE, 0},
		{"mae", MAE, 0},
		{"medae", MedAE, 0},
		{"mape", MAPE, 0},
		{"msle", MSLE, 0},
		{"rmsle", RMSLE, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := tt.fn(y, yhat)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEq(got, tt.want) {
				t.Fatalf("%s(perfect) = %v, want %v", tt.name, got, tt.want)
			}
		})
	}
}

func TestMSEAndMAE(t *testing.T) {
	y := []float64{0, 0, 0, 0}
	yhat := []float64{1, -1, 2, -2}
	mse, err := MSE(y, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mse, 2.5) {
		t.Fatalf("MSE = %v, want 2.5", mse)
	}
	mae, err := MAE(y, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(mae, 1.5) {
		t.Fatalf("MAE = %v, want 1.5", mae)
	}
	rmse, err := RMSE(y, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(rmse, math.Sqrt(2.5)) {
		t.Fatalf("RMSE = %v", rmse)
	}
}

func TestMedAEEvenOdd(t *testing.T) {
	got, err := MedAE([]float64{0, 0, 0}, []float64{1, 2, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2) {
		t.Fatalf("MedAE odd = %v, want 2", got)
	}
	got, err = MedAE([]float64{0, 0, 0, 0}, []float64{1, 2, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 2.5) {
		t.Fatalf("MedAE even = %v, want 2.5", got)
	}
}

func TestMAPE(t *testing.T) {
	got, err := MAPE([]float64{100, 200}, []float64{110, 180})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 10) {
		t.Fatalf("MAPE = %v, want 10", got)
	}
	// Zero targets are skipped.
	got, err = MAPE([]float64{0, 100}, []float64{5, 110})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 10) {
		t.Fatalf("MAPE with zero target = %v, want 10", got)
	}
	if _, err := MAPE([]float64{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("MAPE all-zero targets should error")
	}
}

func TestMSLEDomain(t *testing.T) {
	if _, err := MSLE([]float64{-2}, []float64{0}); err == nil {
		t.Fatal("MSLE should reject values <= -1")
	}
}

func TestR2(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	got, err := R2(y, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1) {
		t.Fatalf("R2(perfect) = %v", got)
	}
	// Predicting the mean gives R2 = 0.
	got, err = R2(y, []float64{2.5, 2.5, 2.5, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0) {
		t.Fatalf("R2(mean) = %v", got)
	}
	if _, err := R2([]float64{3, 3}, []float64{1, 2}); err == nil {
		t.Fatal("R2 constant targets should error")
	}
}

func TestAccuracy(t *testing.T) {
	got, err := Accuracy([]float64{0, 1, 1, 0}, []float64{0, 1, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0.75) {
		t.Fatalf("Accuracy = %v", got)
	}
}

func TestPrecisionRecallF1(t *testing.T) {
	y := []float64{1, 1, 1, 0, 0, 0}
	yhat := []float64{1, 1, 0, 1, 0, 0}
	p, r, f1, err := PrecisionRecallF1(y, yhat)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 2.0/3) || !almostEq(r, 2.0/3) || !almostEq(f1, 2.0/3) {
		t.Fatalf("P/R/F1 = %v %v %v", p, r, f1)
	}
	// No positives predicted: everything zero, no error.
	p, r, f1, err = PrecisionRecallF1([]float64{1, 0}, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if p != 0 || r != 0 || f1 != 0 {
		t.Fatalf("degenerate P/R/F1 = %v %v %v", p, r, f1)
	}
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	got, err := AUC([]float64{0, 0, 1, 1}, []float64{0.1, 0.2, 0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 1) {
		t.Fatalf("AUC perfect = %v", got)
	}
	// Inverted ranking.
	got, err = AUC([]float64{1, 1, 0, 0}, []float64{0.1, 0.2, 0.8, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0) {
		t.Fatalf("AUC inverted = %v", got)
	}
	// All ties = 0.5.
	got, err = AUC([]float64{0, 1, 0, 1}, []float64{0.5, 0.5, 0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, 0.5) {
		t.Fatalf("AUC ties = %v", got)
	}
	if _, err := AUC([]float64{1, 1}, []float64{0.5, 0.6}); err == nil {
		t.Fatal("AUC single class should error")
	}
}

func TestLengthErrors(t *testing.T) {
	fns := map[string]func(y, yhat []float64) (float64, error){
		"mse": MSE, "rmse": RMSE, "mae": MAE, "mape": MAPE,
		"msle": MSLE, "medae": MedAE, "r2": R2, "accuracy": Accuracy, "auc": AUC, "f1": F1,
	}
	for name, fn := range fns {
		if _, err := fn([]float64{1}, []float64{1, 2}); err == nil {
			t.Errorf("%s: want length error", name)
		}
		if _, err := fn(nil, nil); err == nil {
			t.Errorf("%s: want empty error", name)
		}
	}
}

func TestScorerByName(t *testing.T) {
	for _, name := range []string{"rmse", "mse", "mae", "mape", "msle", "rmsle", "medae", "r2", "accuracy", "f1-score", "f1", "auc"} {
		s, err := ScorerByName(name)
		if err != nil {
			t.Fatalf("ScorerByName(%q): %v", name, err)
		}
		if s.Fn == nil {
			t.Fatalf("ScorerByName(%q): nil Fn", name)
		}
	}
	if _, err := ScorerByName("nope"); err == nil {
		t.Fatal("want unknown-scorer error")
	}
	rmse, _ := ScorerByName("rmse")
	if !rmse.Better(1, 2) || rmse.Better(2, 1) {
		t.Fatal("rmse Better direction wrong")
	}
	acc, _ := ScorerByName("accuracy")
	if !acc.Better(0.9, 0.5) || acc.Better(0.5, 0.9) {
		t.Fatal("accuracy Better direction wrong")
	}
}

// Property: RMSE^2 == MSE.
func TestRMSEMSEProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		y := make([]float64, n)
		yhat := make([]float64, n)
		for i := range y {
			y[i], yhat[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		mse, err1 := MSE(y, yhat)
		rmse, err2 := RMSE(y, yhat)
		return err1 == nil && err2 == nil && math.Abs(rmse*rmse-mse) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: AUC is invariant under strictly monotone score transforms.
func TestAUCMonotoneInvarianceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		y := make([]float64, n)
		s := make([]float64, n)
		y[0], y[1] = 0, 1 // ensure both classes
		for i := range y {
			if i >= 2 {
				y[i] = float64(rng.Intn(2))
			}
			s[i] = rng.NormFloat64()
		}
		a1, err1 := AUC(y, s)
		s2 := make([]float64, n)
		for i, v := range s {
			s2[i] = math.Exp(v) // strictly increasing
		}
		a2, err2 := AUC(y, s2)
		return err1 == nil && err2 == nil && math.Abs(a1-a2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
