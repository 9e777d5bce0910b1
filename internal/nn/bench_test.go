package nn

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"coda/internal/matrix"
)

// The four layer shapes that the benchmarks time and
// TestStepAllocationsExact counts.
func denseStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(1))
	return NewDense(64, 64, rng), randInput(rng, 32, 64)
}

func lstmStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(2))
	return NewLSTM(16, 4, 16, rng), randInput(rng, 32, 64)
}

func conv1DStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(3))
	return NewConv1D(64, 4, 8, 2, 4, true, rng), randInput(rng, 32, 256)
}

func gatedBlockStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(4))
	return NewGatedResidualBlock(32, 8, 2, 2, rng), randInput(rng, 16, 256)
}

func benchForwardBackward(b *testing.B, step func() (Layer, *matrix.Matrix)) {
	b.Helper()
	layer, in := step()
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

func BenchmarkDenseForwardBackward(b *testing.B) { benchForwardBackward(b, denseStep) }
func BenchmarkLSTMForwardBackward(b *testing.B)  { benchForwardBackward(b, lstmStep) }
func BenchmarkConv1DCausalDilated(b *testing.B)  { benchForwardBackward(b, conv1DStep) }
func BenchmarkGatedResidualBlock(b *testing.B)   { benchForwardBackward(b, gatedBlockStep) }

// Precision A/B on a full training epoch: same architecture, data and
// seeds, only the element width differs.

// fitNet returns one training epoch (two batches of 32) of a small dense
// network at width T.
func fitNet[T matrix.Float]() func() error {
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
	return func() error { return net.Fit(x, y, cfg) }
}

func benchFitNet[T matrix.Float](b *testing.B) {
	fit := fitNet[T]()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fit(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetworkFitF64(b *testing.B) { benchFitNet[float64](b) }
func BenchmarkNetworkFitF32(b *testing.B) { benchFitNet[float32](b) }

// TestStepAllocationsExact pins what one training step allocates once the
// layer's arena has grown to the batch: the counts are exact, so a single
// new allocation per step — which a mean over ten benchmark iterations,
// first-call growth included, reads as a few per cent — fails here.
// AllocsPerRun warms up once and runs at GOMAXPROCS 1, and every shape is
// under the kernels' goroutine cutoff, so the counts do not depend on the
// host.
func TestStepAllocationsExact(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	forwardBackward := func(step func() (Layer, *matrix.Matrix)) func() error {
		layer, in := step()
		return func() error {
			out, err := layer.Forward(in, true)
			if err != nil {
				return err
			}
			_, err = layer.Backward(out)
			return err
		}
	}
	for _, c := range []struct {
		name string
		step func() error
		want float64
	}{
		{"Dense forward+backward", forwardBackward(denseStep), 0},
		{"LSTM forward+backward", forwardBackward(lstmStep), 5},
		{"Conv1D forward+backward", forwardBackward(conv1DStep), 2},
		{"GatedResidualBlock forward+backward", forwardBackward(gatedBlockStep), 6},
		{"Network.Fit epoch f64", fitNet[float64](), 6},
		{"Network.Fit epoch f32", fitNet[float32](), 6},
	} {
		got := testing.AllocsPerRun(20, func() {
			if err := c.step(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations in steady state, want exactly %v", c.name, got, c.want)
		}
	}
}

// raceDetector reports whether this test binary was built with -race. Under
// the detector sync.Pool sheds a quarter of its Puts on purpose, so
// steady-state allocation counts stop being exact.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
