package nn

import (
	"fmt"
	"math"
	"math/rand"

	"coda/internal/matrix"
)

// LSTMOf processes time-major sequence rows through a single LSTM layer.
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
// Gate activations run in float64 for either element type.
type LSTMOf[T matrix.Float] struct {
	SeqLen    int
	InSize    int
	Hidden    int
	ReturnSeq bool

	wx *ParamOf[T] // InSize x 4*Hidden
	wh *ParamOf[T] // Hidden x 4*Hidden
	b  *ParamOf[T] // 1 x 4*Hidden

	// Forward caches for BPTT (per timestep), recycled across calls.
	lastX *matrix.Mat[T]
	hs    []*matrix.Mat[T] // hidden states, hs[t] is batch x Hidden (t = -1 stored at index 0)
	cs    []*matrix.Mat[T] // cell states, same indexing
	gates []*matrix.Mat[T] // post-activation gates, batch x 4*Hidden
	// tanhC[t] is tanh(cs[t+1]) as Forward computed it, in the float64 the
	// activations run in for either T, so Backward reads it back bit for bit
	// instead of taking the tanh again.
	tanhC []*matrix.Mat[float64]

	// act is one row's gates in float64, where the activations run for
	// either T: pre-activation in, post-activation out.
	act []float64

	// Scratch buffers (see LayerOf contract).
	xw         *matrix.Mat[T] // (batch*SeqLen) x 4H input projections
	hw         *matrix.Mat[T] // batch x 4H recurrent projection
	out        *matrix.Mat[T]
	dGt        *matrix.Mat[T] // batch x 4H pre-activation gate grads at t
	dGAll      *matrix.Mat[T] // (batch*SeqLen) x 4H collected gate grads
	dh, dhNext *matrix.Mat[T]
	dc         *matrix.Mat[T]
	dx         *matrix.Mat[T]
}

// LSTM is the float64 LSTM layer.
type LSTM = LSTMOf[float64]

// NewLSTMOf builds an LSTM with Glorot-uniform weights and forget-gate
// bias 1. The rng stream is consumed identically for either element type.
func NewLSTMOf[T matrix.Float](seqLen, inSize, hidden int, rng *rand.Rand) *LSTMOf[T] {
	l := &LSTMOf[T]{
		SeqLen: seqLen, InSize: inSize, Hidden: hidden,
		wx: newParam[T](inSize, 4*hidden),
		wh: newParam[T](hidden, 4*hidden),
		b:  newParam[T](1, 4*hidden),
	}
	initUniform := func(p *ParamOf[T], fanIn int) {
		limit := math.Sqrt(6.0 / float64(fanIn+4*hidden))
		d := p.W.Data()
		for i := range d {
			d[i] = T((2*rng.Float64() - 1) * limit)
		}
	}
	initUniform(l.wx, inSize)
	initUniform(l.wh, hidden)
	// Forget-gate bias of 1 helps gradient flow early in training.
	for j := hidden; j < 2*hidden; j++ {
		l.b.W.Set(0, j, 1)
	}
	return l
}

// NewLSTM builds a float64 LSTM with Glorot-uniform weights and forget-gate
// bias 1.
func NewLSTM(seqLen, inSize, hidden int, rng *rand.Rand) *LSTM {
	return NewLSTMOf[float64](seqLen, inSize, hidden, rng)
}

// recycleStates resizes a per-timestep buffer slice, keeping entries so
// their backing arrays are reused.
func recycleStates[T matrix.Float](ms []*matrix.Mat[T], n int) []*matrix.Mat[T] {
	if cap(ms) >= n {
		return ms[:n]
	}
	out := make([]*matrix.Mat[T], n)
	copy(out, ms)
	return out
}

// Forward runs the recurrence and returns the final hidden state.
func (l *LSTMOf[T]) Forward(x *matrix.Mat[T], _ bool) (*matrix.Mat[T], error) {
	if x.Cols() != l.SeqLen*l.InSize {
		return nil, fmt.Errorf("%w: lstm expects %d cols (%d x %d), got %d", ErrShape, l.SeqLen*l.InSize, l.SeqLen, l.InSize, x.Cols())
	}
	batch := x.Rows()
	h4 := 4 * l.Hidden
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

	l.hs = recycleStates(l.hs, l.SeqLen+1)
	l.cs = recycleStates(l.cs, l.SeqLen+1)
	l.gates = recycleStates(l.gates, l.SeqLen)
	l.tanhC = recycleStates(l.tanhC, l.SeqLen)
	l.hs[0] = matrix.Recycle(l.hs[0], batch, l.Hidden)
	l.cs[0] = matrix.Recycle(l.cs[0], batch, l.Hidden)

	bias := l.b.W.Row(0)
	l.act = matrix.RecycleVec(l.act, h4)
	act := l.act
	for t := 0; t < l.SeqLen; t++ {
		hPrev := l.hs[t]
		cPrev := l.cs[t]
		l.hw, err = matrix.MulInto(l.hw, hPrev, l.wh.W)
		if err != nil {
			return nil, fmt.Errorf("nn: lstm forward hW: %w", err)
		}
		g := matrix.RecycleNoClear(l.gates[t], batch, h4)
		hNew := matrix.RecycleNoClear(l.hs[t+1], batch, l.Hidden)
		cNew := matrix.RecycleNoClear(l.cs[t+1], batch, l.Hidden)
		l.tanhC[t] = matrix.RecycleNoClear(l.tanhC[t], batch, l.Hidden)
		for i := 0; i < batch; i++ {
			grow := g.Row(i)
			xwrow := l.xw.Row(i*l.SeqLen + t)
			hwrow := l.hw.Row(i)
			for j := range act {
				act[j] = float64(xwrow[j] + hwrow[j] + bias[j])
			}
			// Activations: i, f -> sigmoid; g (cell candidate) -> tanh; o -> sigmoid.
			matrix.Sigmoid(act[:2*l.Hidden], act[:2*l.Hidden])
			matrix.Tanh(act[2*l.Hidden:3*l.Hidden], act[2*l.Hidden:3*l.Hidden])
			matrix.Sigmoid(act[3*l.Hidden:], act[3*l.Hidden:])
			crow := cNew.Row(i)
			cprow := cPrev.Row(i)
			hnrow := hNew.Row(i)
			tcrow := l.tanhC[t].Row(i)
			for j := 0; j < l.Hidden; j++ {
				ig, fg, cg := act[j], act[l.Hidden+j], act[2*l.Hidden+j]
				c := T(fg*float64(cprow[j]) + ig*cg)
				crow[j] = c
				tcrow[j] = float64(c)
			}
			matrix.Tanh(tcrow, tcrow)
			for j, a := range act {
				grow[j] = T(a)
			}
			for j, og := range act[3*l.Hidden:] {
				hnrow[j] = T(og * tcrow[j])
			}
		}
		l.gates[t] = g
		l.hs[t+1] = hNew
		l.cs[t+1] = cNew
	}
	if !l.ReturnSeq {
		out := matrix.RecycleNoClear(l.out, batch, l.Hidden)
		l.out = out
		copy(out.Data(), l.hs[l.SeqLen].Data())
		return out, nil
	}
	out := matrix.RecycleNoClear(l.out, batch, l.SeqLen*l.Hidden)
	l.out = out
	for t := 0; t < l.SeqLen; t++ {
		h := l.hs[t+1]
		for i := 0; i < batch; i++ {
			copy(out.Row(i)[t*l.Hidden:(t+1)*l.Hidden], h.Row(i))
		}
	}
	return out, nil
}

// Backward runs BPTT from the final-hidden-state gradient.
func (l *LSTMOf[T]) Backward(grad *matrix.Mat[T]) (*matrix.Mat[T], error) {
	if l.lastX == nil {
		return nil, fmt.Errorf("nn: lstm backward before forward")
	}
	batch := l.lastX.Rows()
	h4 := 4 * l.Hidden
	wantCols := l.Hidden
	if l.ReturnSeq {
		wantCols = l.SeqLen * l.Hidden
	}
	if grad.Rows() != batch || grad.Cols() != wantCols {
		return nil, fmt.Errorf("%w: lstm backward grad %dx%d, want %dx%d", ErrShape, grad.Rows(), grad.Cols(), batch, wantCols)
	}
	var dh *matrix.Mat[T]
	if l.ReturnSeq {
		dh = matrix.Recycle(l.dh, batch, l.Hidden)
	} else {
		dh = matrix.RecycleNoClear(l.dh, batch, l.Hidden)
		copy(dh.Data(), grad.Data())
	}
	dhNext := matrix.RecycleNoClear(l.dhNext, batch, l.Hidden)
	dc := matrix.Recycle(l.dc, batch, l.Hidden)
	dGAll := matrix.RecycleNoClear(l.dGAll, batch*l.SeqLen, h4)

	for t := l.SeqLen - 1; t >= 0; t-- {
		if l.ReturnSeq {
			// Add the loss gradient arriving directly at this timestep's
			// hidden output.
			for i := 0; i < batch; i++ {
				dst := dh.Row(i)
				src := grad.Row(i)[t*l.Hidden : (t+1)*l.Hidden]
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		g := l.gates[t]
		cPrev := l.cs[t]
		hPrev := l.hs[t]
		dGt := matrix.RecycleNoClear(l.dGt, batch, h4)
		l.dGt = dGt
		for i := 0; i < batch; i++ {
			grow := g.Row(i)
			tcrow := l.tanhC[t].Row(i)
			cprow := cPrev.Row(i)
			dhrow := dh.Row(i)
			dcrow := dc.Row(i)
			dgrow := dGt.Row(i)
			for j := 0; j < l.Hidden; j++ {
				ig := float64(grow[j])
				fg := float64(grow[l.Hidden+j])
				cg := float64(grow[2*l.Hidden+j])
				og := float64(grow[3*l.Hidden+j])
				tc := tcrow[j]
				dct := float64(dcrow[j]) + float64(dhrow[j])*og*(1-tc*tc)
				dgrow[j] = T(dct * cg * ig * (1 - ig))
				dgrow[l.Hidden+j] = T(dct * float64(cprow[j]) * fg * (1 - fg))
				dgrow[2*l.Hidden+j] = T(dct * ig * (1 - cg*cg))
				dgrow[3*l.Hidden+j] = T(float64(dhrow[j]) * tc * og * (1 - og))
				// Next (earlier) timestep's cell gradient.
				dcrow[j] = T(dct * fg)
			}
			copy(dGAll.Row(i*l.SeqLen+t), dgrow)
		}
		// Recurrent-weight gradient and the hidden-state gradient for the
		// earlier timestep, each as one matmul over the batch.
		if err := matrix.MulTransposeAAccum(l.wh.Grad, hPrev, dGt); err != nil {
			return nil, fmt.Errorf("nn: lstm backward dWh: %w", err)
		}
		var err error
		dhNext, err = matrix.MulTransposeBInto(dhNext, dGt, l.wh.W)
		if err != nil {
			return nil, fmt.Errorf("nn: lstm backward dh: %w", err)
		}
		dh, dhNext = dhNext, dh
	}
	l.dh, l.dhNext = dh, dhNext

	// Bias gradient: column sums of every timestep's gate gradient.
	bd := l.b.Grad.Row(0)
	for r := 0; r < dGAll.Rows(); r++ {
		for j, v := range dGAll.Row(r) {
			bd[j] += v
		}
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
	dx := matrix.RecycleNoClear(l.dx, batch, l.SeqLen*l.InSize)
	l.dx = dx
	dxview, err := matrix.FromSlice(batch*l.SeqLen, l.InSize, dx.Data())
	if err != nil {
		return nil, fmt.Errorf("nn: lstm backward dx view: %w", err)
	}
	if _, err := matrix.MulTransposeBInto(dxview, dGAll, l.wx.W); err != nil {
		return nil, fmt.Errorf("nn: lstm backward dx: %w", err)
	}
	l.dGAll = dGAll
	return dx, nil
}

// Parameters implements LayerOf.
func (l *LSTMOf[T]) Parameters() []*ParamOf[T] { return []*ParamOf[T]{l.wx, l.wh, l.b} }
