package matrix

import "fmt"

// LSTM step kernels.
//
// One LSTM timestep over a whole batch is four activation calls (three
// over the step's gate blocks, one over its cell state), these
// element-wise passes and one MulElems for the hidden state h = o·tanh(c);
// nn.LSTM lays the blocks out. They are the package's third primitive,
// under Sigmoid's rule: on amd64 with AVX2 an assembly kernel does four
// elements per instruction, a lane per element (lstm_amd64.s; the AVX-512
// level runs it too); elsewhere, and whenever a test sets the portable
// level, the portable twin below does one; the two give the same bits for
// every input, NaNs aside (which of two NaNs an operation returns is the
// CPU's operand-order rule). Each twin is a fixed sequence of IEEE
// operations in a fixed order, every product written float64(a*b) so that
// no compiler fuses it into the add that follows (the root package's
// crossarch_test.go checks the twins' arm64 code for fused instructions).

// LSTMGather writes one step's pre-activations gate-major into g: for
// sample i < rows, gate q < 4 and unit j < hidden,
//
//	g[q·n + i·hidden + j] = xw[i·xs + q·hidden + j] + hw[i·hs + q·hidden + j] + b[q·hidden + j]
//
// with n = rows·hidden and the adds left to right, each rounded once.
// xw and hw are the step's input and recurrent projections, row-major with
// row strides xs and hs; hs may be 0, so that one row serves every sample
// (the zero state's +0 row). b holds the 4·hidden biases.
func LSTMGather(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	if rows < 0 || hidden < 0 || xs < 0 || hs < 0 {
		panic(fmt.Sprintf("matrix: LSTMGather over %d x %d with strides %d, %d", rows, hidden, xs, hs))
	}
	if rows == 0 || hidden == 0 {
		return
	}
	h4 := 4 * hidden
	checkLen("LSTMGather", rows*h4, len(g))
	checkLen("LSTMGather", (rows-1)*xs+h4, len(xw))
	checkLen("LSTMGather", (rows-1)*hs+h4, len(hw))
	checkLen("LSTMGather", h4, len(b))
	lstmGather(g, xw, xs, hw, hs, b, rows, hidden)
}

// LSTMCell sets, for every k < len(c), the cell state
//
//	c[k] = f[k]·cPrev[k] + i[k]·g[k]
//
// and tc[k] = c[k], the copy the caller's Tanh turns into tanh(c).
// i, f and g are the step's input, forget and candidate gates. Every other
// slice must be at least len(c) long.
func LSTMCell(c, tc, cPrev, i, f, g []float64) {
	n := len(c)
	checkLen("LSTMCell", n, len(tc), len(cPrev), len(i), len(f), len(g))
	lstmCell(c, tc[:n], cPrev[:n], i[:n], f[:n], g[:n])
}

// LSTMGateGrads is the element-wise part of one backpropagation-through-time
// step over n = rows·hidden elements. gates holds the step's post-activation
// gates gate-major, blocks i, f, g and o of n elements each; tc, cPrev and
// dh are tanh of the step's cell state, the previous cell state and the
// gradient arriving at the hidden state; dc holds the gradient arriving at
// the cell state and is replaced by the one leaving for the previous step.
// The pre-activation gate gradients go into dg, rows × 4·hidden row-major
// with each row's gates in [i | f | g | o] order — the layout the
// recurrent products read:
//
//	dct = dc + dh·o·(1 − tc²)
//	dg  = dct·g·i·(1 − i) | dct·cPrev·f·(1 − f) | dct·i·(1 − g²) | dh·tc·o·(1 − o)
//	dc  = dct·f
//
// Products run left to right, each rounded once.
func LSTMGateGrads(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	n := rows * hidden
	if rows < 0 || hidden < 0 {
		panic(fmt.Sprintf("matrix: LSTMGateGrads over %d x %d", rows, hidden))
	}
	checkLen("LSTMGateGrads", n, len(tc), len(cPrev), len(dh), len(dc))
	checkLen("LSTMGateGrads", 4*n, len(dg), len(gates))
	if n == 0 {
		return
	}
	lstmGateGrads(dg[:4*n], gates[:4*n], tc[:n], cPrev[:n], dh[:n], dc[:n], rows, hidden)
}

// checkLen panics unless every length is at least n: the assembly trusts
// its arguments, so a caller's shape bug must stop here.
func checkLen(op string, n int, lens ...int) {
	for _, l := range lens {
		if l < n {
			panic(fmt.Sprintf("matrix: %s over %d elements with a slice of %d", op, n, l))
		}
	}
}

// lstmGatherGeneric is LSTMGather's portable twin; the shape is not empty
// and every slice is long enough for it.
func lstmGatherGeneric(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	n := rows * hidden
	for q := 0; q < 4; q++ {
		bq := b[q*hidden : (q+1)*hidden]
		for i := 0; i < rows; i++ {
			dst := g[q*n+i*hidden : q*n+(i+1)*hidden]
			x := xw[i*xs+q*hidden:][:len(bq)]
			h := hw[i*hs+q*hidden:][:len(bq)]
			for j, bv := range bq {
				dst[j] = x[j] + h[j] + bv
			}
		}
	}
}

// lstmCellGeneric is LSTMCell's portable twin; every slice is len(c).
func lstmCellGeneric(c, tc, cPrev, i, f, g []float64) {
	tc, cPrev, i, f, g = tc[:len(c)], cPrev[:len(c)], i[:len(c)], f[:len(c)], g[:len(c)]
	for k := range c {
		v := float64(f[k]*cPrev[k]) + float64(i[k]*g[k])
		c[k] = v
		tc[k] = v
	}
}

// lstmGateGradsGeneric is LSTMGateGrads's portable twin; the slices are
// exactly as long as the shape says.
func lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	n := rows * hidden
	ig, fg, cg, og := gates[:n], gates[n:2*n], gates[2*n:3*n], gates[3*n:4*n]
	for r := 0; r < rows; r++ {
		row := dg[r*4*hidden : (r+1)*4*hidden]
		di, df, dgc, do := row[:hidden], row[hidden:2*hidden], row[2*hidden:3*hidden], row[3*hidden:]
		for j := range di {
			k := r*hidden + j
			i, f, g, o, t := ig[k], fg[k], cg[k], og[k], tc[k]
			d := dh[k]
			dct := dc[k] + float64(float64(d*o)*(1-float64(t*t)))
			di[j] = dct * g * i * (1 - i)
			df[j] = dct * cPrev[k] * f * (1 - f)
			dgc[j] = dct * i * (1 - float64(g*g))
			do[j] = d * t * o * (1 - o)
			dc[k] = dct * f
		}
	}
}
