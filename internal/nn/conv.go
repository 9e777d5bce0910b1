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
// (sample, output step) pair becomes a row holding its Kernel*InChannels
// receptive field (zeros where a causal tap falls into the padding), so the
// convolution is one (batch*outLen) x (K*IC) by (K*IC) x Filters product
// through the matrix kernels. Output values can differ from the previous
// scalar loops in the last bits (the bias is now added after the taps);
// gradients follow the same im2col/col2im structure. im2col is one
// matrix.CopyBlock per (sample, tap) — a tap's valid output steps read
// consecutive input steps — and col2im one matrix.AddBlock per (sample,
// tap), taps in descending order: an input step receives its taps in the
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

	w, b  *Param // w is (Kernel*InChannels) x Filters
	lastX *matrix.Matrix

	cols  *matrix.Matrix // (batch*outLen) x (Kernel*InChannels) im2col
	out   *matrix.Matrix
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
	c.init(rng)
	return c
}

// init draws the weights from rng and clears the bias.
func (c *Conv1D) init(rng *Rand) {
	drawWeights(c.w.W.Data(), math.Sqrt(6.0/float64(c.Kernel*c.InChannels)), rng)
	clear(c.b.W.Data())
}

// OutLen returns the output sequence length.
func (c *Conv1D) OutLen() int {
	if c.Causal {
		return c.SeqLen
	}
	return c.SeqLen - (c.Kernel-1)*c.Dilation
}

// tapStart returns the first output step at which kernel tap k reads the
// input, and the input step it reads there; tap k of output step t reads
// input step tin + (t − t0). Causal output steps before t0 read the zero
// padding, and t0 is OutLen when every one does.
func (c *Conv1D) tapStart(k, outLen int) (t0, tin int) {
	if c.Causal {
		return min((c.Kernel-1-k)*c.Dilation, outLen), 0
	}
	return 0, k * c.Dilation
}

// Forward applies the convolution to every row.
func (c *Conv1D) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if x.Cols() != c.SeqLen*c.InChannels {
		return nil, fmt.Errorf("%w: conv1d expects %d cols (%d x %d), got %d", ErrShape, c.SeqLen*c.InChannels, c.SeqLen, c.InChannels, x.Cols())
	}
	outLen := c.OutLen()
	if outLen < 1 {
		return nil, fmt.Errorf("%w: conv1d kernel %d dilation %d too large for %d steps", ErrShape, c.Kernel, c.Dilation, c.SeqLen)
	}
	c.lastX = x
	batch := x.Rows()
	ic, kw := c.InChannels, c.Kernel*c.InChannels
	cols := matrix.RecycleNoClear(c.cols, batch*outLen, kw)
	c.cols = cols
	cd, xd := cols.Data(), x.Data()
	for i := 0; i < batch; i++ {
		for k := 0; k < c.Kernel; k++ {
			t0, tin := c.tapStart(k, outLen)
			at := (i*outLen)*kw + k*ic
			for t := 0; t < t0; t++ {
				clear(cd[at+t*kw : at+t*kw+ic])
			}
			if n := outLen - t0; n > 0 {
				matrix.CopyBlock(cd[at+t0*kw:], kw, xd[(i*c.SeqLen+tin)*ic:], ic, n, ic)
			}
		}
	}
	out := matrix.RecycleNoClear(c.out, batch, outLen*c.Filters)
	c.out = out
	outView, err := matrix.FromSlice(batch*outLen, c.Filters, out.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: conv1d forward view: %w", err)
	}
	if _, err := matrix.MulInto(outView, c.cols, c.w.W); err != nil {
		return nil, fmt.Errorf("nn: conv1d forward: %w", err)
	}
	if err := matrix.AddRowVec(outView, c.b.W.Row(0)); err != nil {
		return nil, fmt.Errorf("nn: conv1d forward bias: %w", err)
	}
	return out, nil
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv1D) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if c.lastX == nil {
		return nil, fmt.Errorf("nn: conv1d backward before forward")
	}
	batch := c.lastX.Rows()
	outLen := c.OutLen()
	if grad.Cols() != outLen*c.Filters || grad.Rows() != batch {
		return nil, fmt.Errorf("%w: conv1d backward grad %dx%d", ErrShape, grad.Rows(), grad.Cols())
	}
	gview, err := matrix.FromSlice(batch*outLen, c.Filters, grad.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: conv1d backward view: %w", err)
	}
	if err := matrix.AccumColSums(c.b.Grad.Row(0), gview); err != nil {
		return nil, fmt.Errorf("nn: conv1d backward bias: %w", err)
	}
	// dW += colsᵀ * grad over every (sample, step) row at once.
	if err := matrix.MulTransposeAAccum(c.w.Grad, c.cols, gview); err != nil {
		return nil, fmt.Errorf("nn: conv1d backward dW: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	dcols, err := matrix.MulTransposeBInto(c.dcols, gview, c.w.W)
	if err != nil {
		return nil, fmt.Errorf("nn: conv1d backward dcols: %w", err)
	}
	c.dcols = dcols
	// col2im: add each tap's receptive-field gradients back onto the input
	// steps it read, from +0, taps in descending order (see Conv1D).
	ic, kw := c.InChannels, c.Kernel*c.InChannels
	dx := matrix.Recycle(c.dx, batch, c.SeqLen*ic)
	c.dx = dx
	dd, gd := dx.Data(), dcols.Data()
	for i := 0; i < batch; i++ {
		for k := c.Kernel - 1; k >= 0; k-- {
			t0, tin := c.tapStart(k, outLen)
			if n := outLen - t0; n > 0 {
				matrix.AddBlock(dd[(i*c.SeqLen+tin)*ic:], ic, gd[(i*outLen+t0)*kw+k*ic:], kw, n, ic)
			}
		}
	}
	return dx, nil
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
