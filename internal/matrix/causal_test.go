package matrix_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"coda/internal/matrix"
	"coda/internal/nn"
)

// causalStack builds a causal conv stack over windows of seqLen steps of 2
// series, from a generator seeded with seed: a 1x1 causal lift to 6
// channels, the given blocks, a LastTimestep head and a linear output.
type causalStack struct {
	name   string
	seqLen int
	blocks func(seqLen int, rng *matrix.Rand) []nn.Layer
}

func (s causalStack) layers(seed int64) []nn.Layer {
	const ch = 6
	rng := matrix.NewRand(seed)
	layers := []nn.Layer{nn.NewConv1D(s.seqLen, 2, ch, 1, 1, true, rng)}
	layers = append(layers, s.blocks(s.seqLen, rng)...)
	return append(layers, nn.NewLastTimestep(s.seqLen, ch), nn.NewDense(ch, 1, rng))
}

// causalStacks are the stacks TestCausalDemandBitIdentical trains: the
// WaveNet (gated blocks, dilations 1, 2, 4) and SeriesNet (ReLU blocks,
// dilations 1, 2, 4, 8) stacks at 5 to 9 steps, and a kernel-3,
// dilation-3 stack whose blocks sit behind a dropout — which reads every
// step of the gradient they return — and around a bare causal convolution.
func causalStacks() []causalStack {
	const ch = 6
	var stacks []causalStack
	for seqLen := 5; seqLen <= 9; seqLen++ {
		stacks = append(stacks,
			causalStack{"wavenet", seqLen, func(seqLen int, rng *matrix.Rand) []nn.Layer {
				var l []nn.Layer
				for _, d := range []int{1, 2, 4} {
					l = append(l, nn.NewGatedResidualBlock(seqLen, ch, 2, d, rng))
				}
				return l
			}},
			causalStack{"seriesnet", seqLen, func(seqLen int, rng *matrix.Rand) []nn.Layer {
				var l []nn.Layer
				for _, d := range []int{1, 2, 4, 8} {
					l = append(l, nn.NewResidualConvBlock(seqLen, ch, 2, d, rng))
				}
				return l
			}})
	}
	return append(stacks, causalStack{"kernel3-dilation3", 9, func(seqLen int, rng *matrix.Rand) []nn.Layer {
		return []nn.Layer{
			nn.NewDropout(0.2, rng),
			nn.NewResidualConvBlock(seqLen, ch, 3, 3, rng),
			nn.NewConv1D(seqLen, ch, ch, 3, 3, true, rng),
			nn.NewGatedResidualBlock(seqLen, ch, 3, 3, rng),
		}
	}})
}

// TestCausalDemandBitIdentical is the oracle for causal stacks computing
// only the steps their head reads: each stack of causalStacks is trained
// from one seed twice — built by nn.NewNetwork, which narrows its causal
// layers to the steps the LastTimestep head reads, and as a Network
// literal of the same layers, which compute every step — and every
// parameter and every Predict value must be the same bits. The narrowed
// network is re-initialised after its layers were fitted computing every
// step, as a search's later folds are. It runs on every kernel path this CPU has.
func TestCausalDemandBitIdentical(t *testing.T) {
	for _, path := range matrix.KernelPaths(t) {
		t.Run(path, func(t *testing.T) {
			matrix.UseKernelPath(t, path)
			for _, s := range causalStacks() {
				name := fmt.Sprintf("%s T=%d", s.name, s.seqLen)
				rng := rand.New(rand.NewSource(int64(s.seqLen)))
				x := matrix.New(40, s.seqLen*2)
				for i := range x.Data() {
					x.Data()[i] = rng.NormFloat64()
				}
				y := make([]float64, x.Rows())
				for i := range y {
					y[i] = x.At(i, x.Cols()-2) - 0.5*x.At(i, 0) + 0.1*rng.NormFloat64()
				}
				fit := func(net *nn.Network) []float64 {
					t.Helper()
					// Batches of 16, 16 and 8 rows: the last one reuses
					// buffers the others left.
					if err := net.Fit(x, y, nn.FitConfig{Epochs: 3, BatchSize: 16, Seed: 5}); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					p, err := net.Predict(x)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return p
				}
				// The narrowed layers first train under a dense head that
				// reads every step, so each slot of their buffers, gradients
				// included, holds a value: a step one of them read without
				// computing it would be stale, not the +0 a LastTimestep
				// head's gradient is there.
				layers := s.layers(11)
				body := slices.Clone(layers[:len(layers)-2])
				fit(&nn.Network{Layers: append(body, nn.NewDense(s.seqLen*6, 1, matrix.NewRand(1))), Optimizer: nn.NewAdam(0.01)})
				narrowed := nn.NewNetwork(nn.NewAdam(0.01), layers...)
				if err := narrowed.Reinit(matrix.NewRand(11)); err != nil {
					t.Fatal(err)
				}
				full := &nn.Network{Layers: s.layers(11), Optimizer: nn.NewAdam(0.01)}
				preds := [2][]float64{fit(narrowed), fit(full)}
				fp := full.Parameters()
				for i, p := range narrowed.Parameters() {
					for j, w := range p.W.Data() {
						if want := fp[i].W.Data()[j]; math.Float64bits(w) != math.Float64bits(want) {
							t.Fatalf("%s: parameter %d element %d = %v, every step computed %v", name, i, j, w, want)
						}
					}
				}
				for i, want := range preds[1] {
					if got := preds[0][i]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: prediction %d = %v, every step computed %v", name, i, got, want)
					}
				}
			}
		})
	}
}
