package nn

import (
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"

	"coda/internal/matrix"
)

// The layer shapes that the benchmarks time and TestStepAllocationsExact
// counts.
func denseStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(1))
	return NewDense(64, 64, rng), randInput(rng, 32, 64)
}

// lstmIn2Step is the Fig 11 search's first LSTM layer: a batch of 32
// windows of 8 steps over 2 series into 12 hidden units. In a network it is
// layer 0, so its input gradient is not wanted.
func lstmIn2Step() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(2))
	return NewLSTM(8, 2, 12, rng), randInput(rng, 32, 16)
}

// lstmIn12SeqStep is one of the deep LSTM's stacked layers: 12 inputs per
// step from the layer below, every hidden state out.
func lstmIn12SeqStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(2))
	l := NewLSTM(8, 12, 12, rng)
	l.ReturnSeq = true
	return l, randInput(rng, 32, 96)
}

func conv1DStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(3))
	return NewConv1D(64, 4, 8, 2, 4, true, rng), randInput(rng, 32, 256)
}

func gatedBlockStep() (Layer, *matrix.Matrix) {
	rng := rand.New(rand.NewSource(4))
	return NewGatedResidualBlock(32, 8, 2, 2, rng), randInput(rng, 16, 256)
}

// forwardBackward is one training step of a layer on its input, the
// output standing in for the gradient.
func forwardBackward(step func() (Layer, *matrix.Matrix), wantDX bool) func() error {
	layer, in := step()
	return func() error {
		out, err := layer.Forward(in, true)
		if err != nil {
			return err
		}
		_, err = layer.Backward(out, wantDX)
		return err
	}
}

func benchForwardBackward(b *testing.B, step func() (Layer, *matrix.Matrix), wantDX bool) {
	b.Helper()
	run := forwardBackward(step, wantDX)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseForwardBackward(b *testing.B) { benchForwardBackward(b, denseStep, true) }

// BenchmarkLSTMForwardBackward times the LSTM at the shapes the Fig 11
// search trains: the first layer (In2) and a stacked deep-LSTM layer
// (In12ReturnSeq).
func BenchmarkLSTMForwardBackward(b *testing.B) {
	b.Run("In2", func(b *testing.B) { benchForwardBackward(b, lstmIn2Step, false) })
	b.Run("In12ReturnSeq", func(b *testing.B) { benchForwardBackward(b, lstmIn12SeqStep, true) })
}

func BenchmarkConv1DCausalDilated(b *testing.B) { benchForwardBackward(b, conv1DStep, true) }
func BenchmarkGatedResidualBlock(b *testing.B)  { benchForwardBackward(b, gatedBlockStep, true) }

// fitNet returns one training epoch (two batches of 32) of a small dense
// network.
func fitNet() func() error {
	rng := rand.New(rand.NewSource(7))
	x := randInput(rng, 64, 128)
	y := make([]float64, 64)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	net := NewNetwork(NewAdam(0.01), NewDense(128, 128, rng), NewReLU(), NewDense(128, 1, rng))
	cfg := FitConfig{Epochs: 1, BatchSize: 32, Seed: 1}
	return func() error { return net.Fit(x, y, cfg) }
}

func BenchmarkNetworkFit(b *testing.B) {
	fit := fitNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := fit(); err != nil {
			b.Fatal(err)
		}
	}
}

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
	for _, c := range []struct {
		name string
		step func() error
		want float64
	}{
		{"Dense forward+backward", forwardBackward(denseStep, true), 0},
		{"LSTM In2 forward+backward", forwardBackward(lstmIn2Step, false), 2},
		{"LSTM In12ReturnSeq forward+backward", forwardBackward(lstmIn12SeqStep, true), 3},
		{"Conv1D forward+backward", forwardBackward(conv1DStep, true), 2},
		{"GatedResidualBlock forward+backward", forwardBackward(gatedBlockStep, true), 6},
		{"Network.Fit epoch", fitNet(), 6},
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
