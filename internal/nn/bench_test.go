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
	src, rng := testRand(1)
	return NewDense(64, 64, src), randInput(rng, 32, 64)
}

// lstmIn2Step is the Fig 11 search's first LSTM layer: a batch of 32
// windows of 8 steps over 2 series into 12 hidden units. In a network it is
// layer 0, so its input gradient is not wanted.
func lstmIn2Step() (Layer, *matrix.Matrix) {
	src, rng := testRand(2)
	return NewLSTM(8, 2, 12, src), randInput(rng, 32, 16)
}

// lstmIn12SeqStep is one of the deep LSTM's stacked layers: 12 inputs per
// step from the layer below, every hidden state out.
func lstmIn12SeqStep() (Layer, *matrix.Matrix) {
	src, rng := testRand(2)
	l := NewLSTM(8, 12, 12, src)
	l.ReturnSeq = true
	return l, randInput(rng, 32, 96)
}

func conv1DStep() (Layer, *matrix.Matrix) {
	src, rng := testRand(3)
	return NewConv1D(64, 4, 8, 2, 4, true, src), randInput(rng, 32, 256)
}

func gatedBlockStep() (Layer, *matrix.Matrix) {
	src, rng := testRand(4)
	return NewGatedResidualBlock(32, 8, 2, 2, src), randInput(rng, 16, 256)
}

// seriesNetStep is the SeriesNet stack at the Fig 11 search's shape (a
// batch of 32 windows of 8 steps over 2 series, 16 channels), built by
// NewNetwork, so its blocks compute only the steps the LastTimestep head
// reads: one forward and backward pass, the output standing in for the
// loss gradient.
func seriesNetStep() func() error {
	src, rng := testRand(5)
	layers := []Layer{NewConv1D(8, 2, 16, 1, 1, true, src)}
	for _, d := range []int{1, 2, 4, 8} {
		layers = append(layers, NewResidualConvBlock(8, 16, 2, d, src))
	}
	net := NewNetwork(NewAdam(0.01), append(layers, NewLastTimestep(8, 16), NewDense(16, 1, src))...)
	x := randInput(rng, 32, 16)
	return func() error {
		out, err := net.Forward(x, true)
		if err != nil {
			return err
		}
		return net.backward(out)
	}
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
	src, rng := testRand(7)
	x := randInput(rng, 64, 128)
	y := make([]float64, 64)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	net := NewNetwork(NewAdam(0.01), NewDense(128, 128, src), NewReLU(), NewDense(128, 1, src))
	cfg := FitConfig{Epochs: 1, BatchSize: 32, Seed: 1}
	return func() error { return net.Fit(x, y, cfg) }
}

// foldFit is one fold of a search's unit after its first: the deep LSTM's
// layer stack (two sequence LSTMs and a last-state LSTM, each followed by
// dropout, then a linear head), re-initialised in place from its generator
// re-seeded, trained for one epoch of two batches and asked for its
// predictions. AllocsPerRun's warm-up is the unit's first fold, which grows
// every buffer. What is left is 37 small allocations and no buffer: the
// LSTMs' row-view headers (matrix.FromSlice), 8 per training step (2 in
// layer 0, which wants no input gradient, 3 in each other) and 3 per
// Predict block, two of each; Predict's result; and the parameter list,
// 7 allocations each time Reinit and Fit gather it.
func foldFit() func() error {
	rng := rand.New(rand.NewSource(9))
	x := randInput(rng, 64, 16)
	y := make([]float64, 64)
	for i := range y {
		y[i] = rng.NormFloat64()
	}
	gen := NewRand(3)
	lstm := func(in int, seq bool) *LSTM {
		l := NewLSTM(8, in, 12, gen)
		l.ReturnSeq = seq
		return l
	}
	net := NewNetwork(NewAdam(0.01),
		lstm(2, true), NewDropout(0.1, gen), lstm(12, true), NewDropout(0.1, gen),
		lstm(12, false), NewDropout(0.1, gen), NewDense(12, 1, gen))
	cfg := FitConfig{Epochs: 1, BatchSize: 32, Seed: 3}
	return func() error {
		gen.Seed(3)
		if err := net.Reinit(gen); err != nil {
			return err
		}
		if err := net.Fit(x, y, cfg); err != nil {
			return err
		}
		_, err := net.Predict(x)
		return err
	}
}

// adamStep is one Adam step over a dense network's parameter shapes. The
// moment slab is laid out at the first Step, which AllocsPerRun's warm-up
// takes.
func adamStep() func() error {
	params, _ := adamParams(rand.New(rand.NewSource(8)), 128*128, 128, 128, 1)
	opt := NewAdam(0.01)
	return func() error {
		opt.Step(params)
		return nil
	}
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
		{"Conv1D forward+backward", forwardBackward(conv1DStep, true), 1},
		{"GatedResidualBlock forward+backward", forwardBackward(gatedBlockStep, true), 0},
		{"narrowed SeriesNet stack forward+backward", seriesNetStep(), 1},
		{"Network.Fit epoch", fitNet(), 4},
		{"Adam step", adamStep(), 0},
		{"second fold fit (Reinit, Fit, Predict)", foldFit(), 37},
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
