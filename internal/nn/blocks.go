package nn

import (
	"fmt"

	"coda/internal/matrix"
)

// GatedResidualBlock is one WaveNet building block: two dilated causal
// convolutions feed a gated activation tanh(f) * sigmoid(g), a 1x1
// convolution projects the result back, and the block output adds the
// input (residual connection). Channel count is preserved so blocks stack.
// In a network it computes only the steps the layers after it read
// (steps.go): the convolutions, the gating, the projection and the
// residual sum all run on those steps' compact rows.
type GatedResidualBlock struct {
	SeqLen   int
	Channels int

	convF, convG *Conv1D // dilated causal convs
	proj         *Conv1D // 1x1 projection, over the compact rows

	// tanhA and sigG are tanh(convF(x)) and sigmoid(convG(x)) as Forward
	// took them, so Backward reads them back instead of taking them again.
	tanhA, sigG []float64
	lastGated   *matrix.Matrix

	out, g, da, db, dxSum *matrix.Matrix // reused scratch (see Layer)
}

// NewGatedResidualBlock builds a block with the given kernel and dilation.
func NewGatedResidualBlock(seqLen, channels, kernel, dilation int, rng *matrix.Rand) *GatedResidualBlock {
	return &GatedResidualBlock{
		SeqLen:   seqLen,
		Channels: channels,
		convF:    NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		convG:    NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1D(seqLen, channels, channels, 1, 1, true, rng),
	}
}

// init draws the filter, gate and projection weights from rng, in that
// order.
func (b *GatedResidualBlock) init(rng *matrix.Rand) {
	b.convF.init(rng)
	b.convG.init(rng)
	b.proj.init(rng)
}

// narrow implements narrower: the convolutions compute the steps asked of
// the block, and the projection all of their compact rows.
func (b *GatedResidualBlock) narrow(steps []int, dxEvery bool) []int {
	in := b.convF.setSteps(steps, b.SeqLen, dxEvery)
	b.convG.setSteps(steps, b.SeqLen, dxEvery)
	b.proj.setSteps(nil, stepCount(b.convF.steps.out), false)
	return in
}

// Forward computes x + proj(tanh(convF(x)) * sigmoid(convG(x))) at the
// steps the block computes.
func (b *GatedResidualBlock) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	if err := b.convF.checkInput(x); err != nil {
		return nil, fmt.Errorf("nn: gated block filter conv: %w", err)
	}
	batch := x.Rows()
	a, err := b.convF.forwardRows(x.Data(), batch)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block filter conv: %w", err)
	}
	g, err := b.convG.forwardRows(x.Data(), batch)
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
	r, err := b.proj.forwardRows(od, batch)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block projection: %w", err)
	}
	b.out = matrix.RecycleNoClear(b.out, batch, x.Cols())
	residual(b.out.Data(), x.Data(), r.Data(), batch, b.SeqLen, b.Channels, b.convF.steps.out)
	return b.out, nil
}

// Backward propagates through the residual sum, gate, and convolutions,
// reading grad at the steps the block computes.
func (b *GatedResidualBlock) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if b.lastGated == nil {
		return nil, fmt.Errorf("nn: gated block backward before forward")
	}
	batch, out := b.out.Rows(), b.convF.steps.out
	if grad.Rows() != batch || grad.Cols() != b.out.Cols() {
		return nil, fmt.Errorf("%w: gated block backward grad %dx%d", ErrShape, grad.Rows(), grad.Cols())
	}
	b.g = matrix.RecycleNoClear(b.g, batch*stepCount(out), b.Channels)
	gatherSteps(b.g.Data(), grad.Data(), batch, b.SeqLen, b.Channels, out)
	dGated, err := b.proj.backwardRows(b.g, true)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block projection backward: %w", err)
	}
	da := matrix.RecycleNoClear(b.da, dGated.Rows(), dGated.Cols())
	db := matrix.RecycleNoClear(b.db, dGated.Rows(), dGated.Cols())
	b.da, b.db = da, db
	dgd, dad, dbd := dGated.Data(), da.Data(), db.Data()
	ta, sg := b.tanhA[:len(dgd)], b.sigG[:len(dgd)]
	for i, dg := range dgd {
		dad[i] = dg * sg[i] * (1 - float64(ta[i]*ta[i]))
		dbd[i] = dg * ta[i] * sg[i] * (1 - sg[i])
	}
	dxF, err := b.convF.backwardRows(da, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block filter backward: %w", err)
	}
	dxG, err := b.convG.backwardRows(db, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: gated block gate backward: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	// dx = grad (residual path) + filter path + gate path.
	b.dxSum = matrix.RecycleNoClear(b.dxSum, batch, grad.Cols())
	residualGrad(b.dxSum.Data(), b.g.Data(), batch, b.SeqLen, b.Channels, out, b.convF.steps.in, dxF.Data(), dxG.Data())
	return b.dxSum, nil
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
// connection (no gating). In a network it computes only the steps the
// layers after it read, as GatedResidualBlock does.
type ResidualConvBlock struct {
	SeqLen   int
	Channels int

	conv *Conv1D
	proj *Conv1D // 1x1 projection, over the compact rows
	relu *ReLU

	out, g, dxSum *matrix.Matrix // reused scratch (see Layer)
}

// NewResidualConvBlock builds a block with the given kernel and dilation.
func NewResidualConvBlock(seqLen, channels, kernel, dilation int, rng *matrix.Rand) *ResidualConvBlock {
	return &ResidualConvBlock{
		SeqLen:   seqLen,
		Channels: channels,
		conv:     NewConv1D(seqLen, channels, channels, kernel, dilation, true, rng),
		proj:     NewConv1D(seqLen, channels, channels, 1, 1, true, rng),
		relu:     NewReLU(),
	}
}

// init draws the convolution's, then the projection's weights from rng.
func (b *ResidualConvBlock) init(rng *matrix.Rand) {
	b.conv.init(rng)
	b.proj.init(rng)
}

// narrow implements narrower: the convolution computes the steps asked of
// the block, and the ReLU and the projection all of its compact rows.
func (b *ResidualConvBlock) narrow(steps []int, dxEvery bool) []int {
	in := b.conv.setSteps(steps, b.SeqLen, dxEvery)
	b.proj.setSteps(nil, stepCount(b.conv.steps.out), false)
	return in
}

// Forward computes x + proj(relu(conv(x))) at the steps the block
// computes.
func (b *ResidualConvBlock) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	if err := b.conv.checkInput(x); err != nil {
		return nil, fmt.Errorf("nn: residual block conv: %w", err)
	}
	batch := x.Rows()
	z, err := b.conv.forwardRows(x.Data(), batch)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block conv: %w", err)
	}
	z, err = b.relu.Forward(z, training)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block relu: %w", err)
	}
	r, err := b.proj.forwardRows(z.Data(), batch)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block projection: %w", err)
	}
	b.out = matrix.RecycleNoClear(b.out, batch, x.Cols())
	residual(b.out.Data(), x.Data(), r.Data(), batch, b.SeqLen, b.Channels, b.conv.steps.out)
	return b.out, nil
}

// Backward propagates through the residual sum and convolutions, reading
// grad at the steps the block computes.
func (b *ResidualConvBlock) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if b.out == nil {
		return nil, fmt.Errorf("nn: residual block backward before forward")
	}
	batch, out := b.out.Rows(), b.conv.steps.out
	if grad.Rows() != batch || grad.Cols() != b.out.Cols() {
		return nil, fmt.Errorf("%w: residual block backward grad %dx%d", ErrShape, grad.Rows(), grad.Cols())
	}
	b.g = matrix.RecycleNoClear(b.g, batch*stepCount(out), b.Channels)
	gatherSteps(b.g.Data(), grad.Data(), batch, b.SeqLen, b.Channels, out)
	dz, err := b.proj.backwardRows(b.g, true)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block projection backward: %w", err)
	}
	dz, err = b.relu.Backward(dz, true)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block relu backward: %w", err)
	}
	dxC, err := b.conv.backwardRows(dz, wantDX)
	if err != nil {
		return nil, fmt.Errorf("nn: residual block conv backward: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	b.dxSum = matrix.RecycleNoClear(b.dxSum, batch, grad.Cols())
	residualGrad(b.dxSum.Data(), b.g.Data(), batch, b.SeqLen, b.Channels, out, b.conv.steps.in, dxC.Data())
	return b.dxSum, nil
}

// Parameters implements Layer.
func (b *ResidualConvBlock) Parameters() []*Param {
	var out []*Param
	out = append(out, b.conv.Parameters()...)
	out = append(out, b.proj.Parameters()...)
	return out
}
