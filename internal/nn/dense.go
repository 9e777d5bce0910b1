package nn

import (
	"fmt"
	"math"
	"math/rand"

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
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{In: in, Out: out, w: newParam(in, out), b: newParam(1, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	wd := d.w.W.Data()
	for i := range wd {
		wd[i] = (2*rng.Float64() - 1) * limit
	}
	return d
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

// ReLU applies max(0, x) elementwise.
type ReLU struct {
	mask    []bool
	out, dx *matrix.Matrix
}

// NewReLU returns a ReLU activation.
func NewReLU() *ReLU { return &ReLU{} }

// Forward applies the activation.
func (r *ReLU) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	out := matrix.RecycleNoClear(r.out, x.Rows(), x.Cols())
	r.out = out
	src, d := x.Data(), out.Data()
	if cap(r.mask) >= len(d) {
		r.mask = r.mask[:len(d)]
	} else {
		r.mask = make([]bool, len(d))
	}
	for i, v := range src {
		if v > 0 {
			r.mask[i] = true
			d[i] = v
		} else {
			r.mask[i] = false
			d[i] = 0
		}
	}
	return out, nil
}

// Backward gates gradients through the positive mask.
func (r *ReLU) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if r.mask == nil || len(r.mask) != len(grad.Data()) {
		return nil, fmt.Errorf("%w: relu backward without matching forward", ErrShape)
	}
	if !wantDX {
		return nil, nil
	}
	out := matrix.RecycleNoClear(r.dx, grad.Rows(), grad.Cols())
	r.dx = out
	src, d := grad.Data(), out.Data()
	for i, v := range src {
		if r.mask[i] {
			d[i] = v
		} else {
			d[i] = 0
		}
	}
	return out, nil
}

// Parameters implements Layer.
func (r *ReLU) Parameters() []*Param { return nil }

// Tanh applies tanh elementwise.
type Tanh struct {
	lastOut *matrix.Matrix
	dx      *matrix.Matrix
}

// NewTanh returns a tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward applies tanh.
func (t *Tanh) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	out := matrix.RecycleNoClear(t.lastOut, x.Rows(), x.Cols())
	t.lastOut = out
	matrix.Tanh(out.Data(), x.Data())
	return out, nil
}

// Backward multiplies by 1 - tanh^2.
func (t *Tanh) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if t.lastOut == nil || len(t.lastOut.Data()) != len(grad.Data()) {
		return nil, fmt.Errorf("%w: tanh backward without matching forward", ErrShape)
	}
	if !wantDX {
		return nil, nil
	}
	out := matrix.RecycleNoClear(t.dx, grad.Rows(), grad.Cols())
	t.dx = out
	src, d := grad.Data(), out.Data()
	o := t.lastOut.Data()
	for i, v := range src {
		d[i] = v * (1 - o[i]*o[i])
	}
	return out, nil
}

// Parameters implements Layer.
func (t *Tanh) Parameters() []*Param { return nil }

// Dropout zeroes each activation with probability Rate during training,
// scaling survivors by 1/(1-Rate) (inverted dropout); inference is identity.
type Dropout struct {
	Rate    float64
	rng     *rand.Rand
	mask    []float64
	out, dx *matrix.Matrix
}

// NewDropout builds a dropout layer; rate must be in [0, 1).
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	return &Dropout{Rate: rate, rng: rng}
}

// Forward applies the stochastic mask during training.
func (d *Dropout) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	if d.Rate < 0 || d.Rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate %v outside [0,1)", d.Rate)
	}
	if !training || d.Rate == 0 {
		d.mask = nil
		return x, nil
	}
	out := matrix.RecycleNoClear(d.out, x.Rows(), x.Cols())
	d.out = out
	src, data := x.Data(), out.Data()
	if cap(d.mask) >= len(data) {
		d.mask = d.mask[:len(data)]
	} else {
		d.mask = make([]float64, len(data))
	}
	keep := 1 - d.Rate
	scale := 1 / keep
	for i, v := range src {
		if d.rng.Float64() < keep {
			d.mask[i] = scale
			data[i] = v * scale
		} else {
			d.mask[i] = 0
			data[i] = 0
		}
	}
	return out, nil
}

// Backward applies the same mask to the gradient.
func (d *Dropout) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if !wantDX {
		return nil, nil
	}
	if d.mask == nil {
		return grad, nil
	}
	if len(d.mask) != len(grad.Data()) {
		return nil, fmt.Errorf("%w: dropout backward without matching forward", ErrShape)
	}
	out := matrix.RecycleNoClear(d.dx, grad.Rows(), grad.Cols())
	d.dx = out
	src, data := grad.Data(), out.Data()
	for i, v := range src {
		data[i] = v * d.mask[i]
	}
	return out, nil
}

// Parameters implements Layer.
func (d *Dropout) Parameters() []*Param { return nil }
