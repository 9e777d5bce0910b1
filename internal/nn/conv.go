package nn

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/matrix"
)

// Conv1DOf is a 1-D convolution over time-major sequence rows. With Causal
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
type Conv1DOf[T matrix.Float] struct {
	SeqLen     int // input timesteps
	InChannels int
	Filters    int
	Kernel     int
	Dilation   int  // 1 = ordinary convolution
	Causal     bool // left-pad so output length == SeqLen

	w, b  *ParamOf[T] // w is (Kernel*InChannels) x Filters
	lastX *matrix.Mat[T]

	cols  *matrix.Mat[T] // (batch*outLen) x (Kernel*InChannels) im2col
	out   *matrix.Mat[T]
	dcols *matrix.Mat[T]
	dx    *matrix.Mat[T]
}

// Conv1D is the float64 1-D convolution layer.
type Conv1D = Conv1DOf[float64]

// NewConv1DOf builds a convolution with He-uniform initialization. The rng
// stream is consumed identically for either element type.
func NewConv1DOf[T matrix.Float](seqLen, inChannels, filters, kernel, dilation int, causal bool, rng *rand.Rand) *Conv1DOf[T] {
	if dilation < 1 {
		dilation = 1
	}
	c := &Conv1DOf[T]{
		SeqLen: seqLen, InChannels: inChannels, Filters: filters,
		Kernel: kernel, Dilation: dilation, Causal: causal,
		w: newParam[T](kernel*inChannels, filters), b: newParam[T](1, filters),
	}
	limit := math.Sqrt(6.0 / float64(kernel*inChannels))
	wd := c.w.W.Data()
	for i := range wd {
		wd[i] = T((2*rng.Float64() - 1) * limit)
	}
	return c
}

// NewConv1D builds a float64 convolution with He-uniform initialization.
func NewConv1D(seqLen, inChannels, filters, kernel, dilation int, causal bool, rng *rand.Rand) *Conv1D {
	return NewConv1DOf[float64](seqLen, inChannels, filters, kernel, dilation, causal, rng)
}

// OutLen returns the output sequence length.
func (c *Conv1DOf[T]) OutLen() int {
	if c.Causal {
		return c.SeqLen
	}
	return c.SeqLen - (c.Kernel-1)*c.Dilation
}

// inTime maps (output timestep t, kernel tap k) to the input timestep, or
// -1 when the tap falls into the causal zero padding.
func (c *Conv1DOf[T]) inTime(t, k int) int {
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
func (c *Conv1DOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
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
func (c *Conv1DOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (c *Conv1DOf[T]) Parameters() []*ParamOf[T] { return []*ParamOf[T]{c.w, c.b} }

// MaxPool1DOf downsamples each channel by taking the maximum over
// non-overlapping windows of Pool timesteps.
type MaxPool1DOf[T matrix.Float] struct {
	SeqLen   int
	Channels int
	Pool     int

	argmax  []int // per forward: flattened output position -> input col
	rows    int
	out, dx *matrix.Mat[T]
}

// MaxPool1D is the float64 max-pooling layer.
type MaxPool1D = MaxPool1DOf[float64]

// NewMaxPool1DOf builds a pooling layer; SeqLen must be >= Pool.
func NewMaxPool1DOf[T matrix.Float](seqLen, channels, pool int) *MaxPool1DOf[T] {
	return &MaxPool1DOf[T]{SeqLen: seqLen, Channels: channels, Pool: pool}
}

// NewMaxPool1D builds a float64 pooling layer; SeqLen must be >= Pool.
func NewMaxPool1D(seqLen, channels, pool int) *MaxPool1D {
	return NewMaxPool1DOf[float64](seqLen, channels, pool)
}

// OutLen returns the pooled sequence length.
func (m *MaxPool1DOf[T]) OutLen() int { return m.SeqLen / m.Pool }

// Forward pools each row.
func (m *MaxPool1DOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
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
func (m *MaxPool1DOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (m *MaxPool1DOf[T]) Parameters() []*ParamOf[T] { return nil }

// LastTimestepOf extracts the final timestep's channel vector from a
// sequence row, the standard head for causal stacks: (batch, T*C) -> (batch, C).
type LastTimestepOf[T matrix.Float] struct {
	SeqLen   int
	Channels int
	rows     int
	out, dx  *matrix.Mat[T]
}

// LastTimestep is the float64 extraction layer.
type LastTimestep = LastTimestepOf[float64]

// NewLastTimestepOf builds the extraction layer.
func NewLastTimestepOf[T matrix.Float](seqLen, channels int) *LastTimestepOf[T] {
	return &LastTimestepOf[T]{SeqLen: seqLen, Channels: channels}
}

// NewLastTimestep builds the float64 extraction layer.
func NewLastTimestep(seqLen, channels int) *LastTimestep {
	return NewLastTimestepOf[float64](seqLen, channels)
}

// Forward slices out the last timestep.
func (l *LastTimestepOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
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
func (l *LastTimestepOf[T]) Backward(grad *matrix.Mat[T], wantDX bool) (*matrix.Mat[T], error) {
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

// Parameters implements LayerOf.
func (l *LastTimestepOf[T]) Parameters() []*ParamOf[T] { return nil }
