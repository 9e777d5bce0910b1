package nn

import (
	"fmt"
	"math"

	"coda/internal/matrix"
)

// Conv1D is a 1-D convolution over time-major sequence rows. With Causal
// set, the output has the same length as the input and position t sees only
// inputs at or before t (left zero padding), enabling the WaveNet-style
// dilated stacks; otherwise the convolution is "valid" and the output
// shrinks by (Kernel-1)*Dilation timesteps.
//
// Both passes are expressed as matmuls over an im2col scratch buffer: each
// (sample, computed output step) pair becomes a row holding its
// Kernel*InChannels receptive field (zeros where a causal tap falls into
// the padding), so the convolution is one (batch*m) x (K*IC) by
// (K*IC) x Filters product through the matrix kernels, m the steps
// computed: every output step, unless a network narrowed a causal layer to
// the steps its head reads (steps.go). Output values can differ from the
// previous scalar loops in the last bits (the bias is now added after the
// taps); gradients follow the same im2col/col2im structure. im2col is a
// matrix.CopyBlock per (tap, run of consecutive computed steps) — a tap's
// valid output steps read consecutive input steps — and col2im a
// matrix.AddBlock per (tap, run), taps in descending order, each split by
// sample or by step (runBlocks): an input step receives its taps in the
// order of the output steps that read it, which is descending tap order
// (tin = t + k·Dilation, or t − (Kernel−1−k)·Dilation causal), so every
// input gradient is the per-timestep scatter's sum, bit for bit.
type Conv1D struct {
	SeqLen     int // input timesteps
	InChannels int
	Filters    int
	Kernel     int
	Dilation   int  // 1 = ordinary convolution
	Causal     bool // left-pad so output length == SeqLen

	w, b *Param // w is (Kernel*InChannels) x Filters

	// steps are the output steps the layer computes and the input steps
	// its Backward writes: every step unless a network narrowed a causal
	// layer to the steps its head reads (steps.go).
	steps stepMap
	batch int // rows of the last forwardRows

	cols  *matrix.Matrix // (batch*m) x (Kernel*InChannels) im2col, m steps computed
	rows  *matrix.Matrix // (batch*m) x Filters: the computed steps' outputs
	out   *matrix.Matrix // the output, when the layer computes some steps only
	grows *matrix.Matrix // the gradient's computed steps, likewise
	dcols *matrix.Matrix
	dx    *matrix.Matrix
}

// NewConv1D builds a convolution with He-uniform initialization.
func NewConv1D(seqLen, inChannels, filters, kernel, dilation int, causal bool, rng *Rand) *Conv1D {
	if dilation < 1 {
		dilation = 1
	}
	c := &Conv1D{
		SeqLen: seqLen, InChannels: inChannels, Filters: filters,
		Kernel: kernel, Dilation: dilation, Causal: causal,
		w: newParam(kernel*inChannels, filters), b: newParam(1, filters),
	}
	c.setSteps(nil, seqLen, false)
	c.init(rng)
	return c
}

// init draws the weights from rng and clears the bias.
func (c *Conv1D) init(rng *Rand) {
	drawWeights(c.w.W.Data(), math.Sqrt(6.0/float64(c.Kernel*c.InChannels)), rng)
	clear(c.b.W.Data())
}

// OutLen returns the output sequence length.
func (c *Conv1D) OutLen() int { return c.outLen(c.SeqLen) }

// outLen returns the output length over an input of inLen steps.
func (c *Conv1D) outLen(inLen int) int {
	if c.Causal {
		return inLen
	}
	return inLen - (c.Kernel-1)*c.Dilation
}

// shift returns the offset of the input step kernel tap k reads from the
// output step that reads it: output step t's tap k reads input step
// t + shift(k), causal padding where that is negative.
func (c *Conv1D) shift(k int) int {
	if c.Causal {
		return -(c.Kernel - 1 - k) * c.Dilation
	}
	return k * c.Dilation
}

// tapStart returns how many of the first steps of s tap k reads from the
// causal padding, and the input step it reads at the first step after
// those; tap k of output step t reads input step tin + (t − s.t − pad).
func (c *Conv1D) tapStart(k int, s span) (pad, tin int) {
	sh := c.shift(k)
	pad = min(max(-(s.t+sh), 0), s.n)
	return pad, s.t + pad + sh
}

// narrow implements narrower: a causal convolution computes the steps
// asked of it, a valid one every step.
func (c *Conv1D) narrow(steps []int, dxEvery bool) []int {
	return c.setSteps(steps, c.SeqLen, dxEvery)
}

// setSteps makes c compute the output steps steps (ascending, nil: every
// step) of an input of inLen steps, and returns the input steps they read
// (nil: every step). Steps outside the output are dropped, and a valid
// convolution computes every step. With dxEvery Backward writes the input
// gradient at every step, else at the steps it returns.
func (c *Conv1D) setSteps(steps []int, inLen int, dxEvery bool) []int {
	outLen := c.outLen(inLen)
	if steps == nil || !c.Causal {
		c.steps = stepMap{every(outLen), every(inLen), inLen}
		return nil
	}
	want, read := make([]bool, outLen), make([]bool, inLen)
	for _, t := range steps {
		if t < 0 || t >= outLen {
			continue
		}
		want[t] = true
		for k := 0; k < c.Kernel; k++ {
			if tin := t + c.shift(k); tin >= 0 {
				read[tin] = true
			}
		}
	}
	var in []int
	for t, r := range read {
		if r {
			in = append(in, t)
		}
	}
	c.steps = stepMap{spansOf(want), spansOf(read), inLen}
	if dxEvery {
		c.steps.in = every(inLen)
	}
	return in
}

// checkInput reports whether x is a batch of this layer's input rows.
func (c *Conv1D) checkInput(x *matrix.Matrix) error {
	if x.Cols() != c.SeqLen*c.InChannels {
		return fmt.Errorf("%w: conv1d expects %d cols (%d x %d), got %d", ErrShape, c.SeqLen*c.InChannels, c.SeqLen, c.InChannels, x.Cols())
	}
	if c.OutLen() < 1 {
		return fmt.Errorf("%w: conv1d kernel %d dilation %d too large for %d steps", ErrShape, c.Kernel, c.Dilation, c.SeqLen)
	}
	return nil
}

// Forward applies the convolution to every row, at the steps the layer
// computes.
func (c *Conv1D) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if err := c.checkInput(x); err != nil {
		return nil, err
	}
	rows, err := c.forwardRows(x.Data(), x.Rows())
	if err != nil {
		return nil, err
	}
	batch, outLen := x.Rows(), c.OutLen()
	if stepCount(c.steps.out) == outLen {
		// Every step: the compact rows are the output's layout already.
		return matrix.RecycleNoClear(rows, batch, outLen*c.Filters), nil
	}
	c.out = matrix.RecycleNoClear(c.out, batch, outLen*c.Filters)
	scatterSteps(c.out.Data(), rows.Data(), batch, outLen, c.Filters, c.steps.out)
	return c.out, nil
}

// forwardRows computes the steps the layer computes for batch samples of
// x, each steps.inLen steps of InChannels: it returns their compact rows,
// (batch*m) x Filters. Each row is a (sample, step) row of im2col — its
// receptive field, zeros where a causal tap falls into the padding — times
// w, plus the bias.
func (c *Conv1D) forwardRows(x []float64, batch int) (*matrix.Matrix, error) {
	ic, kw := c.InChannels, c.Kernel*c.InChannels
	m, inLen := stepCount(c.steps.out), c.steps.inLen
	c.batch = batch
	cols := matrix.RecycleNoClear(c.cols, batch*m, kw)
	c.cols = cols
	cd := cols.Data()
	for k := 0; k < c.Kernel; k++ {
		for _, s := range c.steps.out {
			pad, tin := c.tapStart(k, s)
			at := s.at*kw + k*ic // sample 0's first row
			for i := 0; i < batch; i++ {
				for t := 0; t < pad; t++ {
					o := at + (i*m+t)*kw
					clear(cd[o : o+ic])
				}
			}
			if n := s.n - pad; n > 0 {
				runBlocks(matrix.CopyBlock, cd[at+pad*kw:], m*kw, kw, x[tin*ic:], inLen*ic, ic, batch, n, ic)
			}
		}
	}
	rows, err := matrix.MulInto(matrix.RecycleNoClear(c.rows, batch*m, c.Filters), cols, c.w.W)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1d forward: %w", err)
	}
	c.rows = rows
	if err := matrix.AddRowVec(rows, c.b.W.Row(0)); err != nil {
		return nil, fmt.Errorf("nn: conv1d forward bias: %w", err)
	}
	return rows, nil
}

// Backward accumulates weight/bias gradients and returns the input
// gradient, reading grad at the steps the layer computes.
func (c *Conv1D) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if c.cols == nil {
		return nil, fmt.Errorf("nn: conv1d backward before forward")
	}
	batch, outLen := c.batch, c.OutLen()
	if grad.Cols() != outLen*c.Filters || grad.Rows() != batch {
		return nil, fmt.Errorf("%w: conv1d backward grad %dx%d", ErrShape, grad.Rows(), grad.Cols())
	}
	var g *matrix.Matrix
	if m := stepCount(c.steps.out); m == outLen {
		view, err := matrix.FromSlice(batch*outLen, c.Filters, grad.Data())
		if err != nil {
			return nil, fmt.Errorf("nn: conv1d backward view: %w", err)
		}
		g = view
	} else {
		c.grows = matrix.RecycleNoClear(c.grows, batch*m, c.Filters)
		g = c.grows
		gatherSteps(g.Data(), grad.Data(), batch, outLen, c.Filters, c.steps.out)
	}
	dx, err := c.backwardRows(g, wantDX)
	if dx == nil {
		return nil, err
	}
	return matrix.RecycleNoClear(dx, batch, c.SeqLen*c.InChannels), nil
}

// backwardRows takes the gradient's compact rows g at the steps the last
// forwardRows computed: it accumulates the bias and weight gradients over
// them and, with wantDX, returns the input gradient, (batch*steps.inLen) x
// InChannels, written at the steps steps.in.
func (c *Conv1D) backwardRows(g *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if err := matrix.AccumColSums(c.b.Grad.Row(0), g); err != nil {
		return nil, fmt.Errorf("nn: conv1d backward bias: %w", err)
	}
	// dW += colsᵀ * g over every computed (sample, step) row at once.
	if err := matrix.MulTransposeAAccum(c.w.Grad, c.cols, g); err != nil {
		return nil, fmt.Errorf("nn: conv1d backward dW: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	dcols, err := matrix.MulTransposeBInto(c.dcols, g, c.w.W)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1d backward dcols: %w", err)
	}
	c.dcols = dcols
	// col2im: add each tap's receptive-field gradients back onto the input
	// steps it read, from +0, taps in descending order (see Conv1D).
	ic, kw := c.InChannels, c.Kernel*c.InChannels
	m, inLen, batch := stepCount(c.steps.out), c.steps.inLen, c.batch
	dx := matrix.RecycleNoClear(c.dx, batch*inLen, ic)
	c.dx = dx
	dd, gd := dx.Data(), dcols.Data()
	clearSteps(dd, batch, inLen, ic, c.steps.in)
	for k := c.Kernel - 1; k >= 0; k-- {
		for _, s := range c.steps.out {
			pad, tin := c.tapStart(k, s)
			if n := s.n - pad; n > 0 {
				runBlocks(matrix.AddBlock, dd[tin*ic:], inLen*ic, ic, gd[(s.at+pad)*kw+k*ic:], m*kw, kw, batch, n, ic)
			}
		}
	}
	return dx, nil
}

// runBlocks applies op (matrix.CopyBlock or matrix.AddBlock) to n steps of
// width values for each of batch samples, dst's sample i step j at
// i·dSample + j·dStep and src's at i·sSample + j·sStep: one call per step
// over the samples' rows when the run is shorter than the batch, else one
// per sample over the run's steps, which lie together in memory. Each
// element meets op once either way.
func runBlocks(op func(dst []float64, ds int, src []float64, ss int, rows, cols int),
	dst []float64, dSample, dStep int, src []float64, sSample, sStep int, batch, n, width int) {
	if n < batch {
		for j := 0; j < n; j++ {
			op(dst[j*dStep:], dSample, src[j*sStep:], sSample, batch, width)
		}
		return
	}
	for i := 0; i < batch; i++ {
		op(dst[i*dSample:], dStep, src[i*sSample:], sStep, n, width)
	}
}

// Parameters implements Layer.
func (c *Conv1D) Parameters() []*Param { return []*Param{c.w, c.b} }

// MaxPool1D downsamples each channel by taking the maximum over
// non-overlapping windows of Pool timesteps.
type MaxPool1D struct {
	SeqLen   int
	Channels int
	Pool     int

	argmax  []int // per forward: flattened output position -> input col
	rows    int
	out, dx *matrix.Matrix
}

// NewMaxPool1D builds a pooling layer; SeqLen must be >= Pool.
func NewMaxPool1D(seqLen, channels, pool int) *MaxPool1D {
	return &MaxPool1D{SeqLen: seqLen, Channels: channels, Pool: pool}
}

// OutLen returns the pooled sequence length.
func (m *MaxPool1D) OutLen() int { return m.SeqLen / m.Pool }

// Forward pools each row.
func (m *MaxPool1D) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if m.Pool < 1 || m.OutLen() < 1 {
		return nil, fmt.Errorf("%w: maxpool pool=%d over %d steps", ErrShape, m.Pool, m.SeqLen)
	}
	if x.Cols() != m.SeqLen*m.Channels {
		return nil, fmt.Errorf("%w: maxpool expects %d cols, got %d", ErrShape, m.SeqLen*m.Channels, x.Cols())
	}
	outLen := m.OutLen()
	out := matrix.RecycleNoClear(m.out, x.Rows(), outLen*m.Channels)
	m.out = out
	m.rows = x.Rows()
	need := x.Rows() * outLen * m.Channels
	if cap(m.argmax) >= need {
		m.argmax = m.argmax[:need]
	} else {
		m.argmax = make([]int, need)
	}
	for i := 0; i < x.Rows(); i++ {
		in := x.Row(i)
		dst := out.Row(i)
		for t := 0; t < outLen; t++ {
			for ch := 0; ch < m.Channels; ch++ {
				// The window's first position holds until a larger value or
				// a NaN replaces it; a NaN ends the scan, so it propagates
				// and bestCol always names a position of the window.
				bestCol := t*m.Pool*m.Channels + ch
				best := in[bestCol]
				for k := 1; k < m.Pool && best == best; k++ {
					col := (t*m.Pool+k)*m.Channels + ch
					if v := in[col]; v > best || v != v {
						best, bestCol = v, col
					}
				}
				outPos := t*m.Channels + ch
				dst[outPos] = best
				m.argmax[i*outLen*m.Channels+outPos] = bestCol
			}
		}
	}
	return out, nil
}

// Backward routes gradients to the argmax positions.
func (m *MaxPool1D) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	outLen := m.OutLen()
	if m.argmax == nil || grad.Rows() != m.rows || grad.Cols() != outLen*m.Channels {
		return nil, fmt.Errorf("%w: maxpool backward without matching forward", ErrShape)
	}
	if !wantDX {
		return nil, nil
	}
	dx := matrix.Recycle(m.dx, m.rows, m.SeqLen*m.Channels)
	m.dx = dx
	for i := 0; i < grad.Rows(); i++ {
		g := grad.Row(i)
		dIn := dx.Row(i)
		for pos, gv := range g {
			dIn[m.argmax[i*outLen*m.Channels+pos]] += gv
		}
	}
	return dx, nil
}

// Parameters implements Layer.
func (m *MaxPool1D) Parameters() []*Param { return nil }

// LastTimestep extracts the final timestep's channel vector from a
// sequence row, the standard head for causal stacks: (batch, T*C) -> (batch, C).
type LastTimestep struct {
	SeqLen   int
	Channels int
	rows     int
	out, dx  *matrix.Matrix
}

// NewLastTimestep builds the extraction layer.
func NewLastTimestep(seqLen, channels int) *LastTimestep {
	return &LastTimestep{SeqLen: seqLen, Channels: channels}
}

// Forward slices out the last timestep.
func (l *LastTimestep) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if x.Cols() != l.SeqLen*l.Channels {
		return nil, fmt.Errorf("%w: lasttimestep expects %d cols, got %d", ErrShape, l.SeqLen*l.Channels, x.Cols())
	}
	l.rows = x.Rows()
	out := matrix.RecycleNoClear(l.out, x.Rows(), l.Channels)
	l.out = out
	off := (l.SeqLen - 1) * l.Channels
	for i := 0; i < x.Rows(); i++ {
		copy(out.Row(i), x.Row(i)[off:off+l.Channels])
	}
	return out, nil
}

// Backward scatters the gradient into the last timestep slot.
func (l *LastTimestep) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if grad.Rows() != l.rows || grad.Cols() != l.Channels {
		return nil, fmt.Errorf("%w: lasttimestep backward grad %dx%d", ErrShape, grad.Rows(), grad.Cols())
	}
	if !wantDX {
		return nil, nil
	}
	dx := matrix.Recycle(l.dx, l.rows, l.SeqLen*l.Channels)
	l.dx = dx
	off := (l.SeqLen - 1) * l.Channels
	for i := 0; i < grad.Rows(); i++ {
		copy(dx.Row(i)[off:off+l.Channels], grad.Row(i))
	}
	return dx, nil
}

// Parameters implements Layer.
func (l *LastTimestep) Parameters() []*Param { return nil }
