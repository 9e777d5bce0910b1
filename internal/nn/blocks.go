package nn

import (
	"fmt"
	"math/rand"

	"coda/internal/matrix"
)

// GatedResidualBlock is one WaveNet building block: two dilated causal
// convolutions feed a gated activation tanh(f) * sigmoid(g), a 1x1
// convolution projects the result back, and the block output adds the
// input (residual connection). Channel count is preserved so blocks stack.
type GatedResidualBlock struct {
	SeqLen   int
	Channels int

	convF, convG *Conv1D // dilated causal convs
	proj         *Conv1D // 1x1 projection

	// tanhA and sigG are tanh(convF(x)) and sigmoid(convG(x)) as Forward
	// took them, so Backward reads them back instead of taking them again.
	tanhA, sigG []float64
	lastGated   *matrix.Matrix

	out, da, db, dxSum *matrix.Matrix // reused scratch (see Layer)
}

// NewGatedResidualBlock builds a block with the given kernel and dilation.
func NewGatedResidualBlock(seqLen, channels, kernel, dilation int, rng *rand.Rand) *GatedResidualBlock {
	return &GatedResidualBlock{
		SeqLen:   seqLen,
		Channels: channels,
		convF:    NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		convG:    NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1D(seqLen, channels, channels, 1, 1, true, rng),
	}
}

// Forward computes x + proj(tanh(convF(x)) * sigmoid(convG(x))).
func (b *GatedResidualBlock) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
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
	matrix.Tanh(ta, ad)
	matrix.Sigmoid(sg, gd)
	for i := range od {
		od[i] = ta[i] * sg[i]
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
func (b *GatedResidualBlock) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if b.lastGated == nil {
		return nil, fmt.Errorf("nn: gated block backward before forward")
	}
	dGated, err := b.proj.Backward(grad, true)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block projection backward: %w", err)
	}
	da := matrix.RecycleNoClear(b.da, dGated.Rows(), dGated.Cols())
	db := matrix.RecycleNoClear(b.db, dGated.Rows(), dGated.Cols())
	b.da, b.db = da, db
	dgd, dad, dbd := dGated.Data(), da.Data(), db.Data()
	ta, sg := b.tanhA[:len(dgd)], b.sigG[:len(dgd)]
	for i, dg := range dgd {
		dad[i] = dg * sg[i] * (1 - ta[i]*ta[i])
		dbd[i] = dg * ta[i] * sg[i] * (1 - sg[i])
	}
	dxF, err := b.convF.Backward(da, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block filter backward: %w", err)
	}
	dxG, err := b.convG.Backward(db, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block gate backward: %w", err)
	}
	if !wantDX {
		return nil, nil
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

// Parameters implements Layer.
func (b *GatedResidualBlock) Parameters() []*Param {
	var out []*Param
	out = append(out, b.convF.Parameters()...)
	out = append(out, b.convG.Parameters()...)
	out = append(out, b.proj.Parameters()...)
	return out
}

// ResidualConvBlock is the SeriesNet-style block: a dilated causal
// convolution with ReLU, a 1x1 projection, and a linear residual
// connection (no gating).
type ResidualConvBlock struct {
	SeqLen   int
	Channels int

	conv *Conv1D
	proj *Conv1D
	relu *ReLU

	out, dxSum *matrix.Matrix // reused scratch (see Layer)
}

// NewResidualConvBlock builds a block with the given kernel and dilation.
func NewResidualConvBlock(seqLen, channels, kernel, dilation int, rng *rand.Rand) *ResidualConvBlock {
	return &ResidualConvBlock{
		SeqLen:   seqLen,
		Channels: channels,
		conv:     NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1D(seqLen, channels, channels, 1, 1, true, rng),
		relu:     NewReLU(),
	}
}

// Forward computes x + proj(relu(conv(x))).
func (b *ResidualConvBlock) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
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
func (b *ResidualConvBlock) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	dz, err := b.proj.Backward(grad, true)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block projection backward: %w", err)
	}
	dz, err = b.relu.Backward(dz, true)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block relu backward: %w", err)
	}
	dxC, err := b.conv.Backward(dz, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block conv backward: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	dx, err := matrix.AddInto(b.dxSum, grad, dxC)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block grad sum: %w", err)
	}
	b.dxSum = dx
	return dx, nil
}

// Parameters implements Layer.
func (b *ResidualConvBlock) Parameters() []*Param {
	var out []*Param
	out = append(out, b.conv.Parameters()...)
	out = append(out, b.proj.Parameters()...)
	return out
}
