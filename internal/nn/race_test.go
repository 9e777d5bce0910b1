package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"coda/internal/matrix"
)

// raceNet builds a small stack covering every arena-buffered layer family
// (dense, activation, recurrent, convolutional) from a fixed seed.
func raceNet(kind int, seed int64) *Network {
	src := matrix.NewRand(seed)
	switch kind % 3 {
	case 0:
		return NewNetwork(NewAdam(0.01),
			NewDense(8, 12, src), NewReLU(), NewDense(12, 1, src))
	case 1:
		return NewNetwork(NewAdam(0.01),
			NewLSTM(4, 2, 6, src), NewDense(6, 1, src))
	default:
		return NewNetwork(NewAdam(0.01),
			NewConv1D(4, 2, 5, 2, 1, true, src),
			NewLastTimestep(4, 5),
			NewDense(5, 1, src))
	}
}

// raceData returns a shared training set; rows are interpreted either as 8
// flat features or as a 4x2 time-major sequence, so one dataset serves all
// three network kinds.
func raceData() (*matrix.Matrix, []float64) {
	rng := rand.New(rand.NewSource(3))
	x := matrix.New(24, 8)
	y := make([]float64, 24)
	for i := 0; i < 24; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = rng.NormFloat64()
		}
		y[i] = row[0] - 0.5*row[3]
	}
	return x, y
}

// TestParallelNetworksMatchSerial trains many networks concurrently on a
// shared (read-only) dataset — under -race this stresses the per-layer
// scratch arenas — and requires each
// network's predictions to be bitwise identical to a serially-trained twin,
// proving no scratch state leaks across network instances.
func TestParallelNetworksMatchSerial(t *testing.T) {
	x, y := raceData()
	cfg := FitConfig{Epochs: 3, BatchSize: 8, Seed: 5}

	const n = 9
	want := make([][]float64, n)
	for i := 0; i < n; i++ {
		net := raceNet(i, int64(100+i))
		if err := net.Fit(x, y, cfg); err != nil {
			t.Fatal(err)
		}
		preds, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = preds
	}

	got := make([][]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			net := raceNet(i, int64(100+i))
			if err := net.Fit(x, y, cfg); err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = net.Predict(x)
		}(i)
	}
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("net %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("net %d: %d preds vs %d", i, len(got[i]), len(want[i]))
		}
		for k := range got[i] {
			if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
				t.Fatalf("net %d pred %d: parallel %v != serial %v", i, k, got[i][k], want[i][k])
			}
		}
	}
}
