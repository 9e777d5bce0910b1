package nn

import (
	"fmt"
	"math"

	"coda/internal/matrix"
)

// Dense is a fully-connected layer: out = x*W + b.
type Dense struct {
	In, Out int
	w, b    *Param
	lastX   *matrix.Matrix

	out, dx *matrix.Matrix // reused forward/backward scratch (see Layer)
}

// NewDense builds a Dense layer with Glorot-uniform initialization from
// rng.
func NewDense(in, out int, rng *matrix.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(in, out), b: newParam(1, out)}
	d.init(rng)
	return d
}

// init draws the weights from rng and clears the bias.
func (d *Dense) init(rng *matrix.Rand) {
	drawWeights(d.w.W.Data(), math.Sqrt(6.0/float64(d.In+d.Out)), rng)
	clear(d.b.W.Data())
}

// Forward computes x*W + b.
func (d *Dense) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if x.Cols() != d.In {
		return nil, fmt.Errorf("%w: dense expects %d inputs, got %d", ErrShape, d.In, x.Cols())
	}
	d.lastX = x
	out, err := matrix.MulInto(d.out, x, d.w.W)
	if err != nil {
		return nil, fmt.Errorf("nn: dense forward: %w", err)
	}
	d.out = out
	if err := matrix.AddRowVec(out, d.b.W.Row(0)); err != nil {
		return nil, fmt.Errorf("nn: dense forward bias: %w", err)
	}
	return out, nil
}

// Backward accumulates dW = x^T*grad, db = colsum(grad), returns grad*W^T.
func (d *Dense) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if d.lastX == nil {
		return nil, fmt.Errorf("nn: dense backward before forward")
	}
	// dW += xᵀ*grad, folded into the gradient without materialising xᵀ.
	if err := matrix.MulTransposeAAccum(d.w.Grad, d.lastX, grad); err != nil {
		return nil, fmt.Errorf("nn: dense backward dW: %w", err)
	}
	if err := matrix.AccumColSums(d.b.Grad.Row(0), grad); err != nil {
		return nil, fmt.Errorf("nn: dense backward bias: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	dx, err := matrix.MulTransposeBInto(d.dx, grad, d.w.W)
	if err != nil {
		return nil, fmt.Errorf("nn: dense backward dX: %w", err)
	}
	d.dx = dx
	return dx, nil
}

// Parameters implements Layer.
func (d *Dense) Parameters() []*Param { return []*Param{d.w, d.b} }

// ReLU applies max(0, x) elementwise: x where x > 0, +0 elsewhere (-0 and
// NaN included), through matrix.KeepPositive, which selects with a bit mask
// instead of a branch on each element's sign. Backward keeps the gradient
// where Forward's output is > 0, which holds exactly where its input was.
type ReLU struct {
	out, dx *matrix.Matrix
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the activation.
func (r *ReLU) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	out := matrix.RecycleNoClear(r.out, x.Rows(), x.Cols())
	r.out = out
	matrix.KeepPositive(out.Data(), x.Data(), x.Data())
	return out, nil
}

// Backward gates gradients through the positive outputs.
func (r *ReLU) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if r.out == nil || len(r.out.Data()) != len(grad.Data()) {
		return nil, fmt.Errorf("%w: relu backward without matching forward", ErrShape)
	}
	if !wantDX {
		return nil, nil
	}
	dx := matrix.RecycleNoClear(r.dx, grad.Rows(), grad.Cols())
	r.dx = dx
	matrix.KeepPositive(dx.Data(), grad.Data(), r.out.Data())
	return dx, nil
}

// Parameters implements Layer.
func (r *ReLU) Parameters() []*Param { return nil }

// Dropout zeroes each activation with probability Rate during training,
// scaling survivors by 1/(1-Rate) (inverted dropout); inference is identity.
type Dropout struct {
	Rate float64
	rng  *matrix.Rand
	// mask is the last training Forward's mask; inference empties it
	// (keeping its backing array), and an empty mask is the identity.
	mask    []float64
	out, dx *matrix.Matrix
}

// NewDropout builds a dropout layer; rate must be in [0, 1).
func NewDropout(rate float64, rng *matrix.Rand) *Dropout {
	return &Dropout{Rate: rate, rng: rng}
}

// init takes rng as the mask generator.
func (d *Dropout) init(rng *matrix.Rand) { d.rng = rng }

// Forward applies the stochastic mask during training.
func (d *Dropout) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	if d.Rate < 0 || d.Rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v outside [0,1)", d.Rate)
	}
	if !training || d.Rate == 0 {
		d.mask = d.mask[:0]
		return x, nil
	}
	out := matrix.RecycleNoClear(d.out, x.Rows(), x.Cols())
	d.out = out
	// One uniform per element in index order (the draw order is part of
	// every score), drawn as one block; the kernel turns each into its mask
	// and applies it.
	d.mask = matrix.RecycleVec(d.mask, len(out.Data()))
	d.rng.Float64s(d.mask)
	keep := 1 - d.Rate
	matrix.DropoutApply(d.mask, out.Data(), x.Data(), keep, 1/keep)
	return out, nil
}

// Backward applies the same mask to the gradient: g·mask, so an Inf or NaN
// gradient of a dropped element is a NaN, as any product with +0 is.
func (d *Dropout) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if !wantDX {
		return nil, nil
	}
	if len(d.mask) == 0 {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data()) {
		return nil, fmt.Errorf("%w: dropout backward without matching forward", ErrShape)
	}
	out := matrix.RecycleNoClear(d.dx, grad.Rows(), grad.Cols())
	d.dx = out
	matrix.MulElems(out.Data(), grad.Data(), d.mask)
	return out, nil
}

// Parameters implements Layer.
func (d *Dropout) Parameters() []*Param { return nil }
