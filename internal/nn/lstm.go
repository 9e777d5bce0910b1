package nn

import (
	"fmt"
	"math"

	"coda/internal/matrix"
)

// LSTM processes time-major sequence rows through a single LSTM layer.
// With ReturnSeq false it emits the final hidden state
// (batch, SeqLen*InSize) -> (batch, Hidden); with ReturnSeq true it emits
// every hidden state (batch, SeqLen*Hidden), allowing LSTMs to stack for
// the paper's deep four-layer architecture. Backward runs full
// backpropagation through time.
//
// Gate layout in the packed weight matrices is [input | forget | cell | output],
// each Hidden wide.
//
// The recurrence is batched: the input projection for every timestep is one
// (batch*SeqLen) x InSize by InSize x 4*Hidden matmul over a no-copy view of
// the input, and BPTT collects all pre-activation gate gradients into one
// (batch*SeqLen) x 4*Hidden buffer so the input-weight gradient and the
// input gradient are each a single matmul. Values can differ from a
// per-element recurrence in the last bits (summation order), bounded by
// normal dot-product rounding; results are still deterministic for a seed.
//
// Each timestep's element-wise work runs over the whole batch at once: the
// pre-activations are gathered gate-major — four blocks of batch x Hidden,
// one per gate — so that the i and f gates are one Sigmoid call, g one Tanh
// and o one Sigmoid, and the cell update, tanh of the cell state, the
// hidden update and BPTT's gate gradients are each one pass of a matrix
// LSTM kernel over the batch. h at t = -1 is the zero state, so step 0
// skips its recurrent products, forward and backward.
type LSTM struct {
	SeqLen    int
	InSize    int
	Hidden    int
	ReturnSeq bool

	wx *Param // InSize x 4*Hidden
	wh *Param // Hidden x 4*Hidden
	b  *Param // 1 x 4*Hidden

	// Forward caches for BPTT, recycled across calls. With n = batch*Hidden:
	lastX *matrix.Matrix
	hs    []*matrix.Matrix // hs[t] is the hidden state after step t, batch x Hidden
	cs    []float64        // cell states, n per step; step t's at [(t+1)n, (t+2)n), the zero state first
	// gates holds each step's post-activation gates, 4n per step, gate-major
	// (blocks i, f, g, o of n each).
	gates []float64
	// tanhC is tanh of each step's cell state, n per step, as Forward
	// computed it, so Backward reads it back bit for bit instead of taking
	// the tanh again.
	tanhC []float64

	// Scratch buffers (see Layer contract).
	xw         *matrix.Matrix // (batch*SeqLen) x 4H input projections
	hw         *matrix.Matrix // batch x 4H recurrent projection
	zeroHW     []float64      // 4H zeros: the recurrent projection of the zero state
	out        *matrix.Matrix
	dGt        *matrix.Matrix // batch x 4H pre-activation gate grads at t
	dGAll      *matrix.Matrix // (batch*SeqLen) x 4H collected gate grads
	dh, dhNext *matrix.Matrix
	whT        *matrix.Matrix // Whᵀ, packed once per Backward for every step's dh
	dc         []float64
	dx         *matrix.Matrix
}

// NewLSTM builds an LSTM with Glorot-uniform weights and forget-gate
// bias 1.
func NewLSTM(seqLen, inSize, hidden int, rng *Rand) *LSTM {
	l := &LSTM{
		SeqLen: seqLen, InSize: inSize, Hidden: hidden,
		wx: newParam(inSize, 4*hidden),
		wh: newParam(hidden, 4*hidden),
		b:  newParam(1, 4*hidden),
	}
	l.init(rng)
	return l
}

// init draws the input, then the recurrent weights from rng, and sets the
// bias to 1 on the forget gate and 0 elsewhere.
func (l *LSTM) init(rng *Rand) {
	h := l.Hidden
	drawWeights(l.wx.W.Data(), math.Sqrt(6.0/float64(l.InSize+4*h)), rng)
	drawWeights(l.wh.W.Data(), math.Sqrt(6.0/float64(h+4*h)), rng)
	// Forget-gate bias of 1 helps gradient flow early in training.
	b := l.b.W.Row(0)
	clear(b)
	for j := h; j < 2*h; j++ {
		b[j] = 1
	}
}

// recycleStates resizes a per-timestep buffer slice, keeping entries so
// their backing arrays are reused.
func recycleStates(ms []*matrix.Matrix, n int) []*matrix.Matrix {
	if cap(ms) >= n {
		return ms[:n]
	}
	out := make([]*matrix.Matrix, n)
	copy(out, ms)
	return out
}

// Forward runs the recurrence and returns the final hidden state.
func (l *LSTM) Forward(x *matrix.Matrix, _ bool) (*matrix.Matrix, error) {
	if x.Cols() != l.SeqLen*l.InSize {
		return nil, fmt.Errorf("%w: lstm expects %d cols (%d x %d), got %d", ErrShape, l.SeqLen*l.InSize, l.SeqLen, l.InSize, x.Cols())
	}
	batch, H := x.Rows(), l.Hidden
	n := batch * H
	l.lastX = x

	// One matmul projects every timestep: row i*SeqLen+t of the view is
	// sample i's input at time t.
	xview, err := matrix.FromSlice(batch*l.SeqLen, l.InSize, x.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: lstm forward view: %w", err)
	}
	l.xw, err = matrix.MulInto(l.xw, xview, l.wx.W)
	if err != nil {
		return nil, fmt.Errorf("nn: lstm forward xW: %w", err)
	}

	l.hs = recycleStates(l.hs, l.SeqLen)
	l.cs = matrix.RecycleVec(l.cs, (l.SeqLen+1)*n)
	clear(l.cs[:n])
	l.gates = matrix.RecycleVec(l.gates, l.SeqLen*4*n)
	l.tanhC = matrix.RecycleVec(l.tanhC, l.SeqLen*n)
	// At t = 0 the previous hidden state is zero, and so is hW: MulInto
	// would skip every zero term and leave +0 in every cell. One row of
	// +0, read for every sample, stands in for it.
	if len(l.zeroHW) != 4*H {
		l.zeroHW = make([]float64, 4*H)
	}
	hw, hwStride := l.zeroHW, 0
	for t := 0; t < l.SeqLen; t++ {
		if t > 0 {
			l.hw, err = matrix.MulInto(l.hw, l.hs[t-1], l.wh.W)
			if err != nil {
				return nil, fmt.Errorf("nn: lstm forward hW: %w", err)
			}
			hw, hwStride = l.hw.Data(), 4*H
		}
		g := l.gates[t*4*n : (t+1)*4*n]
		// Row i*SeqLen+t of xW is sample i's input projection at t (an
		// empty batch has an empty xW).
		xw := l.xw.Data()
		matrix.LSTMGather(g, xw[min(t*4*H, len(xw)):], l.SeqLen*4*H, hw, hwStride, l.b.W.Row(0), batch, H)
		// Activations: i, f -> sigmoid; g (cell candidate) -> tanh; o -> sigmoid.
		matrix.Sigmoid(g[:2*n], g[:2*n])
		matrix.Tanh(g[2*n:3*n], g[2*n:3*n])
		matrix.Sigmoid(g[3*n:], g[3*n:])
		tc := l.tanhC[t*n : (t+1)*n]
		matrix.LSTMCell(l.cs[(t+1)*n:(t+2)*n], tc, l.cs[t*n:(t+1)*n], g[:n], g[n:2*n], g[2*n:3*n])
		matrix.Tanh(tc, tc)
		h := matrix.RecycleNoClear(l.hs[t], batch, H)
		l.hs[t] = h
		matrix.MulElems(h.Data(), g[3*n:], tc)
	}
	if !l.ReturnSeq {
		out := matrix.RecycleNoClear(l.out, batch, H)
		l.out = out
		copy(out.Data(), l.hs[l.SeqLen-1].Data())
		return out, nil
	}
	out := matrix.RecycleNoClear(l.out, batch, l.SeqLen*H)
	l.out = out
	for t, h := range l.hs {
		for i := 0; i < batch; i++ {
			copy(out.Row(i)[t*H:(t+1)*H], h.Row(i))
		}
	}
	return out, nil
}

// Backward runs BPTT from the final-hidden-state gradient.
func (l *LSTM) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	if l.lastX == nil {
		return nil, fmt.Errorf("nn: lstm backward before forward")
	}
	batch, H := l.lastX.Rows(), l.Hidden
	n := batch * H
	h4 := 4 * H
	wantCols := H
	if l.ReturnSeq {
		wantCols = l.SeqLen * H
	}
	if grad.Rows() != batch || grad.Cols() != wantCols {
		return nil, fmt.Errorf("%w: lstm backward grad %dx%d, want %dx%d", ErrShape, grad.Rows(), grad.Cols(), batch, wantCols)
	}
	var dh *matrix.Matrix
	if l.ReturnSeq {
		dh = matrix.Recycle(l.dh, batch, H)
	} else {
		dh = matrix.RecycleNoClear(l.dh, batch, H)
		copy(dh.Data(), grad.Data())
	}
	dhNext := l.dhNext
	l.dc = matrix.RecycleVec(l.dc, n)
	dc := l.dc
	clear(dc)
	dGAll := matrix.RecycleNoClear(l.dGAll, batch*l.SeqLen, h4)
	dGt := matrix.RecycleNoClear(l.dGt, batch, h4)
	l.dGt = dGt
	if l.SeqLen > 1 {
		l.whT = matrix.TInto(l.whT, l.wh.W)
	}

	for t := l.SeqLen - 1; t >= 0; t-- {
		if l.ReturnSeq {
			// Add the loss gradient arriving directly at this timestep's
			// hidden output.
			for i := 0; i < batch; i++ {
				dst := dh.Row(i)
				src := grad.Row(i)[t*H : (t+1)*H]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		matrix.LSTMGateGrads(dGt.Data(), l.gates[t*4*n:(t+1)*4*n], l.tanhC[t*n:(t+1)*n],
			l.cs[t*n:(t+1)*n], dh.Data(), dc, batch, H)
		for i := 0; i < batch; i++ {
			copy(dGAll.Row(i*l.SeqLen+t), dGt.Row(i))
		}
		if t == 0 {
			// h at t = -1 is the zero state: its recurrent-weight terms are
			// zero products the matmul would skip, and nothing reads its
			// gradient.
			break
		}
		// Recurrent-weight gradient and the hidden-state gradient for the
		// earlier timestep, each as one matmul over the batch; the second is
		// MulTransposeBInto's product against the Whᵀ packed above.
		if err := matrix.MulTransposeAAccum(l.wh.Grad, l.hs[t-1], dGt); err != nil {
			return nil, fmt.Errorf("nn: lstm backward dWh: %w", err)
		}
		var err error
		dhNext, err = matrix.MulNoSkipInto(dhNext, dGt, l.whT)
		if err != nil {
			return nil, fmt.Errorf("nn: lstm backward dh: %w", err)
		}
		dh, dhNext = dhNext, dh
	}
	l.dh, l.dhNext = dh, dhNext
	l.dGAll = dGAll

	// Bias gradient: column sums of every timestep's gate gradient.
	if err := matrix.AccumColSums(l.b.Grad.Row(0), dGAll); err != nil {
		return nil, fmt.Errorf("nn: lstm backward bias: %w", err)
	}
	// Input-weight gradient and input gradient: one matmul each over the
	// collected gate gradients.
	xview, err := matrix.FromSlice(batch*l.SeqLen, l.InSize, l.lastX.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: lstm backward view: %w", err)
	}
	if err := matrix.MulTransposeAAccum(l.wx.Grad, xview, dGAll); err != nil {
		return nil, fmt.Errorf("nn: lstm backward dWx: %w", err)
	}
	if !wantDX {
		return nil, nil
	}
	dx := matrix.RecycleNoClear(l.dx, batch, l.SeqLen*l.InSize)
	l.dx = dx
	dxview, err := matrix.FromSlice(batch*l.SeqLen, l.InSize, dx.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: lstm backward dx view: %w", err)
	}
	if _, err := matrix.MulTransposeBInto(dxview, dGAll, l.wx.W); err != nil {
		return nil, fmt.Errorf("nn: lstm backward dx: %w", err)
	}
	return dx, nil
}

// Parameters implements Layer.
func (l *LSTM) Parameters() []*Param { return []*Param{l.wx, l.wh, l.b} }
