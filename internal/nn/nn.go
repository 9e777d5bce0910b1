// Package nn is the pure-Go neural-network substrate standing in for the
// Keras models in the paper's time-series prediction pipeline (Section
// IV-C). It provides dense, dropout, 1-D convolution (with causal dilation
// for the WaveNet/SeriesNet blocks), max-pooling and LSTM layers with full
// backpropagation, trained with the Adam optimizer.
//
// Data layout: a batch is a matrix with one sample per row. Sequence layers
// interpret each row time-major as [t0c0, t0c1, ..., t0cV, t1c0, ...] —
// exactly the layout produced by tswindow.NewCascadedWindows — with the
// sequence length and channel count fixed at layer construction.
//
// Every value is float64: weights, activations, gradients and the
// optimizer's state.
package nn

import (
	"errors"
	"fmt"
	"math/rand"

	"coda/internal/matrix"
)

// ErrShape is wrapped by layer shape-mismatch errors.
var ErrShape = errors.New("nn: shape mismatch")

// Param is one learnable tensor with its accumulated gradient.
type Param struct {
	W    *matrix.Matrix
	Grad *matrix.Matrix
}

// newParam allocates a weight matrix and its gradient buffer.
func newParam(rows, cols int) *Param {
	return &Param{W: matrix.New(rows, cols), Grad: matrix.New(rows, cols)}
}

// drawWeights sets w[i] = (2u − 1)·limit for the next len(w) uniform draws
// u from rng, in index order: a weight initialiser's draws on
// [−limit, limit).
func drawWeights(w []float64, limit float64, rng *matrix.Rand) {
	rng.Float64s(w)
	for i, u := range w {
		w[i] = signedUniform(u) * limit
	}
}

// signedUniform is 2u − 1 for a uniform draw u: a draw on [−1, 1). 2u is
// rounded on its own (exactly), so no compiler fuses the doubling into the
// subtraction (arm64 would).
func signedUniform(u float64) float64 {
	return float64(2*u) - 1
}

// zeroGrad clears the gradient buffer.
func (p *Param) zeroGrad() {
	d := p.Grad.Data()
	for i := range d {
		d[i] = 0
	}
}

// initializer is a layer that draws its starting state from a generator:
// its constructor calls init once, and Network.Reinit calls it again. A
// layer with parameters draws them and resets the rest to their starting
// values; a Dropout takes rng as its mask generator.
type initializer interface {
	init(rng *matrix.Rand)
}

// Layer is one differentiable stage of a network. Forward must cache
// whatever Backward needs; Backward receives dLoss/dOutput and returns
// dLoss/dInput while accumulating parameter gradients. With wantDX false
// nothing reads the input gradient — the network's first layer gets
// false — so the layer skips whatever only that gradient needs and returns
// a nil matrix; its parameter gradients are the same bits either way.
//
// Buffer lifetime contract: layers own arena-style scratch buffers, so the
// matrix returned by Forward is valid only until the layer's next Forward
// call, and the matrix returned by Backward only until its next Backward
// call (forward and backward buffers are distinct, so a Backward never
// clobbers a held Forward output). Callers that keep a result across calls
// must Clone it. Layers must not mutate their input x after Forward
// returns, nor the incoming grad — both belong to neighbouring layers.
type Layer interface {
	Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error)
	Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error)
	Parameters() []*Param
}

// Network is a sequential stack of layers trained with mini-batch
// gradient descent on mean-squared error (regression) — the loss all
// estimators in the time-series pipeline optimize.
type Network struct {
	Layers    []Layer
	Optimizer *Adam

	// Per-batch training scratch, reused across steps so Fit does not
	// allocate per mini-batch; Predict feeds its row blocks through bx too.
	bx   *matrix.Matrix
	gbuf *matrix.Matrix
	by   []float64
	// batch is the mini-batch size of the last Fit: Predict's block size,
	// so inference runs in the buffers training grew.
	batch int
	// Fit's batch order: shuffle is rand.New(orderRand), orderRand
	// re-seeded with each Fit's seed, and rows the row order it shuffles.
	orderRand *matrix.Rand
	shuffle   *rand.Rand
	rows      []int
}

// NewNetwork builds a sequential network; opt may be nil, defaulting to
// Adam(1e-2). Its causal layers compute only the timesteps the layers
// after them read (steps.go), so its Layers are not to change afterwards:
// a different stack of the same layers is a new NewNetwork.
func NewNetwork(opt *Adam, layers ...Layer) *Network {
	if opt == nil {
		opt = NewAdam(0.01)
	}
	n := &Network{Layers: layers, Optimizer: opt}
	n.narrow()
	return n
}

// Parameters returns all learnable parameters in layer order.
func (n *Network) Parameters() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Parameters()...)
	}
	return out
}

// Reinit puts n back where its layers' constructors left it, in place:
// each layer draws its weights from rng again, in layer order, and resets
// the rest of its parameters (a Dropout takes rng as its mask generator);
// every gradient is zeroed, and the optimizer starts over (Adam's moments
// and step back at zero). A network whose layers were built in the order
// they stand, from a generator seeded as rng is, gets its constructors'
// weights bit for bit, so a Fit after Reinit is a new network's Fit. The
// scratch buffers every layer grew are kept. A layer with parameters that
// cannot draw them again, or a nil optimizer, is an error, and leaves n
// part re-initialised.
func (n *Network) Reinit(rng *matrix.Rand) error {
	for i, l := range n.Layers {
		if in, ok := l.(initializer); ok {
			in.init(rng)
		} else if len(l.Parameters()) > 0 {
			return fmt.Errorf("nn: layer %d (%T) cannot re-initialise its parameters", i, l)
		}
	}
	for _, p := range n.Parameters() {
		p.zeroGrad()
	}
	if n.Optimizer == nil {
		return errors.New("nn: network has no optimizer")
	}
	n.Optimizer.reset()
	return nil
}

// Forward runs the full stack.
func (n *Network) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	var err error
	for i, l := range n.Layers {
		x, err = l.Forward(x, training)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d forward: %w", i, err)
		}
	}
	return x, nil
}

// backward runs the full stack in reverse. Layer 0's input gradient would
// be the gradient of the training data, so layer 0 is not asked for it.
func (n *Network) backward(grad *matrix.Matrix) error {
	var err error
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad, err = n.Layers[i].Backward(grad, i > 0)
		if err != nil {
			return fmt.Errorf("nn: layer %d backward: %w", i, err)
		}
	}
	return nil
}

// FitConfig controls Network.Fit.
type FitConfig struct {
	Epochs    int   // passes over the data (default 50)
	BatchSize int   // mini-batch rows (default 32)
	Seed      int64 // shuffling seed
}

func (cfg *FitConfig) setDefaults() {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
}

// Fit trains on (x, y) minimizing MSE. y has one value per row.
func (n *Network) Fit(x *matrix.Matrix, y []float64, cfg FitConfig) error {
	if x.Rows() != len(y) {
		return fmt.Errorf("%w: %d rows vs %d targets", ErrShape, x.Rows(), len(y))
	}
	if x.Rows() == 0 {
		return fmt.Errorf("nn: empty training set")
	}
	cfg.setDefaults()
	n.batch = cfg.BatchSize
	if n.orderRand == nil {
		n.orderRand = matrix.NewRand(cfg.Seed)
		n.shuffle = rand.New(n.orderRand)
	} else {
		n.orderRand.Seed(cfg.Seed)
	}
	params := n.Parameters()
	if cap(n.rows) < x.Rows() {
		n.rows = make([]int, x.Rows())
	}
	order := n.rows[:x.Rows()]
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		n.shuffle.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			idx := order[start:end]
			n.bx = matrix.SelectRowsInto(n.bx, x, idx)
			if err := n.fitStep(n.bx, idx, y, params); err != nil {
				return err
			}
		}
	}
	return nil
}

// fitStep runs one mini-batch: forward, MSE gradient, backward, optimizer
// step. bx holds the gathered batch rows; idx indexes y.
func (n *Network) fitStep(bx *matrix.Matrix, idx []int, y []float64, params []*Param) error {
	n.by = matrix.RecycleVec(n.by, len(idx))
	by := n.by
	for k, i := range idx {
		by[k] = y[i]
	}
	for _, p := range params {
		p.zeroGrad()
	}
	out, err := n.Forward(bx, true)
	if err != nil {
		return err
	}
	if out.Cols() != 1 {
		return fmt.Errorf("%w: network output has %d cols, want 1", ErrShape, out.Cols())
	}
	// dMSE/dout = 2*(out - y)/batch.
	n.gbuf = matrix.RecycleNoClear(n.gbuf, out.Rows(), 1)
	grad := n.gbuf
	inv := 2.0 / float64(out.Rows())
	for i := 0; i < out.Rows(); i++ {
		grad.Set(i, 0, inv*(out.At(i, 0)-by[i]))
	}
	if err := n.backward(grad); err != nil {
		return err
	}
	n.Optimizer.Step(params)
	return nil
}

// Predict runs inference, returning one value per row. It runs Forward over
// blocks of the last Fit's batch size (the default batch size before any
// Fit), so every layer works in the buffers training already grew. The
// values are those of one Forward over all of x: in inference every layer
// computes each row from that row alone.
func (n *Network) Predict(x *matrix.Matrix) ([]float64, error) {
	block := n.batch
	if block <= 0 {
		cfg := FitConfig{}
		cfg.setDefaults()
		block = cfg.BatchSize
	}
	rows, cols := x.Rows(), x.Cols()
	preds := make([]float64, rows)
	// A zero-row x still runs one (empty) block, so its shape is checked.
	for start := 0; start == 0 || start < rows; start += block {
		end := min(start+block, rows)
		n.bx = matrix.RecycleNoClear(n.bx, end-start, cols)
		copy(n.bx.Data(), x.Data()[start*cols:end*cols])
		out, err := n.Forward(n.bx, false)
		if err != nil {
			return nil, err
		}
		if out.Cols() != 1 {
			return nil, fmt.Errorf("%w: network output has %d cols, want 1", ErrShape, out.Cols())
		}
		copy(preds[start:end], out.Data())
	}
	return preds, nil
}
