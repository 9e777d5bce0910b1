package nn

import (
	"fmt"
	"math"
	"math/rand"

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
// gradients follow the same im2col/col2im structure.
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
func NewConv1D(seqLen, inChannels, filters, kernel, dilation int, causal bool, rng *rand.Rand) *Conv1D {
	if dilation < 1 {
		dilation = 1
	}
	c := &Conv1D{
		SeqLen: seqLen, InChannels: inChannels, Filters: filters,
		Kernel: kernel, Dilation: dilation, Causal: causal,
		w: newParam(kernel*inChannels, filters), b: newParam(1, filters),
	}
	limit := math.Sqrt(6.0 / float64(kernel*inChannels))
	wd := c.w.W.Data()
	for i := range wd {
		wd[i] = (2*rng.Float64() - 1) * limit
	}
	return c
}

// OutLen returns the output sequence length.
func (c *Conv1D) OutLen() int {
	if c.Causal {
		return c.SeqLen
	}
	return c.SeqLen - (c.Kernel-1)*c.Dilation
}

// inTime maps (output timestep t, kernel tap k) to the input timestep, or
// -1 when the tap falls into the causal zero padding.
func (c *Conv1D) inTime(t, k int) int {
	if c.Causal {
		tin := t - (c.Kernel-1-k)*c.Dilation
		if tin < 0 {
			return -1
		}
		return tin
	}
	return t + k*c.Dilation
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
	ic := c.InChannels
	cols := matrix.Recycle(c.cols, batch*outLen, c.Kernel*ic) // zeros feed causal padding
	c.cols = cols
	for i := 0; i < batch; i++ {
		in := x.Row(i)
		for t := 0; t < outLen; t++ {
			dst := cols.Row(i*outLen + t)
			for k := 0; k < c.Kernel; k++ {
				tin := c.inTime(t, k)
				if tin < 0 {
					continue
				}
				copy(dst[k*ic:(k+1)*ic], in[tin*ic:(tin+1)*ic])
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
	// col2im: scatter-add receptive-field gradients back onto timesteps.
	ic := c.InChannels
	dx := matrix.Recycle(c.dx, batch, c.SeqLen*ic)
	c.dx = dx
	for i := 0; i < batch; i++ {
		dIn := dx.Row(i)
		for t := 0; t < outLen; t++ {
			src := dcols.Row(i*outLen + t)
			for k := 0; k < c.Kernel; k++ {
				tin := c.inTime(t, k)
				if tin < 0 {
					continue
				}
				d := dIn[tin*ic : (tin+1)*ic]
				s := src[k*ic : (k+1)*ic]
				for ch, v := range s {
					d[ch] += v
				}
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
