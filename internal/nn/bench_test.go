package nn

import (
	"math/rand"
	"testing"

	"coda/internal/matrix"
)

func benchForwardBackward(b *testing.B, layer Layer, in *matrix.Matrix) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := layer.Forward(in, true)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := layer.Backward(out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	benchForwardBackward(b, NewDense(64, 64, rng), randInput(rng, 32, 64))
}

func BenchmarkLSTMForwardBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	benchForwardBackward(b, NewLSTM(16, 4, 16, rng), randInput(rng, 32, 64))
}

func BenchmarkConv1DCausalDilated(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	benchForwardBackward(b, NewConv1D(64, 4, 8, 2, 4, true, rng), randInput(rng, 32, 256))
}

func BenchmarkGatedResidualBlock(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	benchForwardBackward(b, NewGatedResidualBlock(32, 8, 2, 2, rng), randInput(rng, 16, 256))
}

// Precision A/B on a full training epoch: same architecture, data and
// seeds, only the element width differs. The CI bench-kernels job records
// both so the f32 end-to-end speedup stays visible next to the raw matmul
// ratio.

func benchFitNet[T matrix.Float](b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x64 := randInput(rng, 64, 128)
	y64 := make([]float64, 64)
	for i := range y64 {
		y64[i] = rng.NormFloat64()
	}
	x := matrix.ConvertInto[T](nil, x64)
	y := matrix.ConvertVec[T](nil, y64)
	net := NewNetworkOf[T](NewAdamOf[T](0.01),
		NewDenseOf[T](128, 128, rng), NewReLUOf[T](), NewDenseOf[T](128, 1, rng))
	cfg := FitConfig{Epochs: 1, BatchSize: 32, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := net.Fit(x, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkFitF64(b *testing.B) { benchFitNet[float64](b) }
func BenchmarkNetworkFitF32(b *testing.B) { benchFitNet[float32](b) }
