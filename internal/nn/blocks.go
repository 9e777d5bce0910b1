package nn

import (
	"fmt"
	"math/rand"

	"coda/internal/matrix"
)

// GatedResidualBlockOf is one WaveNet building block: two dilated causal
// convolutions feed a gated activation tanh(f) * sigmoid(g), a 1x1
// convolution projects the result back, and the block output adds the
// input (residual connection). Channel count is preserved so blocks stack.
type GatedResidualBlockOf[T matrix.Float] struct {
	SeqLen   int
	Channels int

	convF, convG *Conv1DOf[T] // dilated causal convs
	proj         *Conv1DOf[T] // 1x1 projection

	// tanhA and sigG are tanh(convF(x)) and sigmoid(convG(x)) as Forward
	// took them, in the float64 the activations run in for either T, so
	// Backward reads them back instead of taking them again.
	tanhA, sigG []float64
	lastGated   *matrix.Mat[T]

	out, da, db, dxSum *matrix.Mat[T] // reused scratch (see LayerOf)
}

// GatedResidualBlock is the float64 WaveNet block.
type GatedResidualBlock = GatedResidualBlockOf[float64]

// NewGatedResidualBlockOf builds a block with the given kernel and dilation.
func NewGatedResidualBlockOf[T matrix.Float](seqLen, channels, kernel, dilation int, rng *rand.Rand) *GatedResidualBlockOf[T] {
	return &GatedResidualBlockOf[T]{
		SeqLen:   seqLen,
		Channels: channels,
		convF:    NewConv1DOf[T](seqLen, channels, channels, kernel, dilation, true, rng),
		convG:    NewConv1DOf[T](seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1DOf[T](seqLen, channels, channels, 1, 1, true, rng),
	}
}

// NewGatedResidualBlock builds a float64 block with the given kernel and
// dilation.
func NewGatedResidualBlock(seqLen, channels, kernel, dilation int, rng *rand.Rand) *GatedResidualBlock {
	return NewGatedResidualBlockOf[float64](seqLen, channels, kernel, dilation, rng)
}

// Forward computes x + proj(tanh(convF(x)) * sigmoid(convG(x))).
func (b *GatedResidualBlockOf[T]) Forward(x *matrix.Mat[T], training bool) (*matrix.Mat[T], error) {
	a, err := b.convF.Forward(x, training)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block filter conv: %w", err)
	}
	g, err := b.convG.Forward(x, training)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block gate conv: %w", err)
	}
	gated := matrix.RecycleNoClear(b.lastGated, a.Rows(), a.Cols())
	b.lastGated = gated
	ad, gd, od := a.Data(), g.Data(), gated.Data()
	b.tanhA = matrix.RecycleVec(b.tanhA, len(od))
	b.sigG = matrix.RecycleVec(b.sigG, len(od))
	ta, sg := b.tanhA, b.sigG
	for i := range od {
		ta[i], sg[i] = float64(ad[i]), float64(gd[i])
	}
	matrix.Tanh(ta, ta)
	matrix.Sigmoid(sg, sg)
	for i := range od {
		od[i] = T(ta[i] * sg[i])
	}
	r, err := b.proj.Forward(gated, training)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block projection: %w", err)
	}
	out, err := matrix.AddInto(b.out, x, r)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block residual: %w", err)
	}
	b.out = out
	return out, nil
}

// Backward propagates through the residual sum, gate, and convolutions.
func (b *GatedResidualBlockOf[T]) Backward(grad *matrix.Mat[T]) (*matrix.Mat[T], error) {
	if b.lastGated == nil {
		return nil, fmt.Errorf("nn: gated block backward before forward")
	}
	dGated, err := b.proj.Backward(grad)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block projection backward: %w", err)
	}
	da := matrix.RecycleNoClear(b.da, dGated.Rows(), dGated.Cols())
	db := matrix.RecycleNoClear(b.db, dGated.Rows(), dGated.Cols())
	b.da, b.db = da, db
	dgd, dad, dbd := dGated.Data(), da.Data(), db.Data()
	ta, sg := b.tanhA[:len(dgd)], b.sigG[:len(dgd)]
	for i, v := range dgd {
		dg := float64(v)
		dad[i] = T(dg * sg[i] * (1 - ta[i]*ta[i]))
		dbd[i] = T(dg * ta[i] * sg[i] * (1 - sg[i]))
	}
	dxF, err := b.convF.Backward(da)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block filter backward: %w", err)
	}
	dxG, err := b.convG.Backward(db)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block gate backward: %w", err)
	}
	// dx = grad (residual path) + filter path + gate path.
	dx, err := matrix.AddInto(b.dxSum, grad, dxF)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block residual grad: %w", err)
	}
	b.dxSum = dx
	if _, err = matrix.AddInto(dx, dx, dxG); err != nil {
		return nil, fmt.Errorf("nn: gated block gate grad: %w", err)
	}
	return dx, nil
}

// Parameters implements LayerOf.
func (b *GatedResidualBlockOf[T]) Parameters() []*ParamOf[T] {
	var out []*ParamOf[T]
	out = append(out, b.convF.Parameters()...)
	out = append(out, b.convG.Parameters()...)
	out = append(out, b.proj.Parameters()...)
	return out
}

// ResidualConvBlockOf is the SeriesNet-style block: a dilated causal
// convolution with ReLU, a 1x1 projection, and a linear residual
// connection (no gating).
type ResidualConvBlockOf[T matrix.Float] struct {
	SeqLen   int
	Channels int

	conv *Conv1DOf[T]
	proj *Conv1DOf[T]
	relu *ReLUOf[T]

	out, dxSum *matrix.Mat[T] // reused scratch (see LayerOf)
}

// ResidualConvBlock is the float64 SeriesNet block.
type ResidualConvBlock = ResidualConvBlockOf[float64]

// NewResidualConvBlockOf builds a block with the given kernel and dilation.
func NewResidualConvBlockOf[T matrix.Float](seqLen, channels, kernel, dilation int, rng *rand.Rand) *ResidualConvBlockOf[T] {
	return &ResidualConvBlockOf[T]{
		SeqLen:   seqLen,
		Channels: channels,
		conv:     NewConv1DOf[T](seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1DOf[T](seqLen, channels, channels, 1, 1, true, rng),
		relu:     NewReLUOf[T](),
	}
}

// NewResidualConvBlock builds a float64 block with the given kernel and
// dilation.
func NewResidualConvBlock(seqLen, channels, kernel, dilation int, rng *rand.Rand) *ResidualConvBlock {
	return NewResidualConvBlockOf[float64](seqLen, channels, kernel, dilation, rng)
}

// Forward computes x + proj(relu(conv(x))).
func (b *ResidualConvBlockOf[T]) Forward(x *matrix.Mat[T], training bool) (*matrix.Mat[T], error) {
	z, err := b.conv.Forward(x, training)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block conv: %w", err)
	}
	z, err = b.relu.Forward(z, training)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block relu: %w", err)
	}
	r, err := b.proj.Forward(z, training)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block projection: %w", err)
	}
	out, err := matrix.AddInto(b.out, x, r)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block sum: %w", err)
	}
	b.out = out
	return out, nil
}

// Backward propagates through the residual sum and convolutions.
func (b *ResidualConvBlockOf[T]) Backward(grad *matrix.Mat[T]) (*matrix.Mat[T], error) {
	dz, err := b.proj.Backward(grad)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block projection backward: %w", err)
	}
	dz, err = b.relu.Backward(dz)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block relu backward: %w", err)
	}
	dxC, err := b.conv.Backward(dz)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block conv backward: %w", err)
	}
	dx, err := matrix.AddInto(b.dxSum, grad, dxC)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block grad sum: %w", err)
	}
	b.dxSum = dx
	return dx, nil
}

// Parameters implements LayerOf.
func (b *ResidualConvBlockOf[T]) Parameters() []*ParamOf[T] {
	var out []*ParamOf[T]
	out = append(out, b.conv.Parameters()...)
	out = append(out, b.proj.Parameters()...)
	return out
}
