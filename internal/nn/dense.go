package nn

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/matrix"
)

// DenseOf is a fully-connected layer: out = x*W + b.
type DenseOf[T matrix.Float] struct {
	In, Out int
	w, b    *ParamOf[T]
	lastX   *matrix.Mat[T]

	out, dx *matrix.Mat[T] // reused forward/backward scratch (see LayerOf)
}

// Dense is the float64 fully-connected layer.
type Dense = DenseOf[float64]

// NewDenseOf builds a Dense layer with Glorot-uniform initialization from
// rng. The rng stream is consumed identically for either element type, so
// f32 and f64 layers built from the same seed share (rounded) weights.
func NewDenseOf[T matrix.Float](in, out int, rng *rand.Rand) *DenseOf[T] {
	d := &DenseOf[T]{In: in, Out: out, w: newParam[T](in, out), b: newParam[T](1, out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	wd := d.w.W.Data()
	for i := range wd {
		wd[i] = T((2*rng.Float64() - 1) * limit)
	}
	return d
}

// NewDense builds a float64 Dense layer with Glorot-uniform initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense { return NewDenseOf[float64](in, out, rng) }

// Forward computes x*W + b.
func (d *DenseOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
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
func (d *DenseOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (d *DenseOf[T]) Parameters() []*ParamOf[T] { return []*ParamOf[T]{d.w, d.b} }

// ReLUOf applies max(0, x) elementwise.
type ReLUOf[T matrix.Float] struct {
	mask    []bool
	out, dx *matrix.Mat[T]
}

// ReLU is the float64 ReLU activation.
type ReLU = ReLUOf[float64]

// NewReLUOf returns a ReLU activation.
func NewReLUOf[T matrix.Float]() *ReLUOf[T] { return &ReLUOf[T]{} }

// NewReLU returns a float64 ReLU activation.
func NewReLU() *ReLU { return NewReLUOf[float64]() }

// Forward applies the activation.
func (r *ReLUOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
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
func (r *ReLUOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (r *ReLUOf[T]) Parameters() []*ParamOf[T] { return nil }

// TanhOf applies tanh elementwise (computed in float64 for either width).
type TanhOf[T matrix.Float] struct {
	lastOut *matrix.Mat[T]
	dx      *matrix.Mat[T]
	act     []float64 // the input, then its tanh, in float64
}

// Tanh is the float64 tanh activation.
type Tanh = TanhOf[float64]

// NewTanhOf returns a tanh activation.
func NewTanhOf[T matrix.Float]() *TanhOf[T] { return &TanhOf[T]{} }

// NewTanh returns a float64 tanh activation.
func NewTanh() *Tanh { return NewTanhOf[float64]() }

// Forward applies tanh.
func (t *TanhOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
	out := matrix.RecycleNoClear(t.lastOut, x.Rows(), x.Cols())
	t.lastOut = out
	src, d := x.Data(), out.Data()
	t.act = matrix.RecycleVec(t.act, len(src))
	for i, v := range src {
		t.act[i] = float64(v)
	}
	matrix.Tanh(t.act, t.act)
	for i, v := range t.act {
		d[i] = T(v)
	}
	return out, nil
}

// Backward multiplies by 1 - tanh^2.
func (t *TanhOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (t *TanhOf[T]) Parameters() []*ParamOf[T] { return nil }

// DropoutOf zeroes each activation with probability Rate during training,
// scaling survivors by 1/(1-Rate) (inverted dropout); inference is identity.
type DropoutOf[T matrix.Float] struct {
	Rate    float64
	rng     *rand.Rand
	mask    []T
	out, dx *matrix.Mat[T]
}

// Dropout is the float64 dropout layer.
type Dropout = DropoutOf[float64]

// NewDropoutOf builds a dropout layer; rate must be in [0, 1).
func NewDropoutOf[T matrix.Float](rate float64, rng *rand.Rand) *DropoutOf[T] {
	return &DropoutOf[T]{Rate: rate, rng: rng}
}

// NewDropout builds a float64 dropout layer; rate must be in [0, 1).
func NewDropout(rate float64, rng *rand.Rand) *Dropout { return NewDropoutOf[float64](rate, rng) }

// Forward applies the stochastic mask during training.
func (d *DropoutOf[T]) Forward(x *matrix.Mat[T], training bool) (*matrix.Mat[T], error) {
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
		d.mask = make([]T, len(data))
	}
	keep := 1 - d.Rate
	scale := T(1 / keep)
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
func (d *DropoutOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (d *DropoutOf[T]) Parameters() []*ParamOf[T] { return nil }
