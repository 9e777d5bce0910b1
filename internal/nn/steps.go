package nn

import "coda/internal/matrix"

// Causal stacks compute only the timesteps their head reads.
//
// A causal layer's output at step t depends on its input at t and, for each
// kernel tap k, at t − (K−1−k)·d when that step is not padding — never on a
// later step. A LastTimestep head reads one step of the layer before it, so
// a WaveNet or SeriesNet stack ending in one needs, block by block, only the
// steps that step's receptive field holds. When NewNetwork builds a network
// it walks the layers back from the output (Network.narrow): a LastTimestep
// asks for step SeqLen−1, each causal layer (a causal Conv1D, a
// GatedResidualBlock, a ResidualConvBlock) computes the steps the layer
// after it asks for and asks the layer before it for the steps those read,
// and any other layer (Dense, LSTM, MaxPool1D, a non-causal Conv1D,
// anything between blocks) computes, and asks for, every step. "Every step"
// is the same code given the full step list: a layer nobody narrowed, such
// as the CNN's convolutions, runs as it always did.
//
// A causal layer's computed steps are its compact rows: with m steps
// computed, sample i's j-th one is row i·m + j of its im2col matrix, its
// products, its gating or ReLU and its 1x1 projection. Its output matrix
// keeps the (batch, SeqLen·C) layout; the slots of the steps it does not
// compute hold whatever was there before, and no layer reads them: the
// layer after it reads only the steps it asked for, forward and backward.
// A layer whose input gradient the layer before it reads in full (one that
// is not causal) writes that gradient at every step, +0 where nothing
// flows, as it did when it computed every step.
//
// The bits are those of computing every step. Each computed step runs its
// own operation sequence unchanged: its im2col row, its row of each
// product, its element-wise gating, ReLU and residual sums. What goes is
// the unread steps' terms in the sums over rows — the bias and weight
// gradients, and col2im's sums into the input gradient — and every such
// term is a ±0 product. The gradient at a step nothing downstream reads is
// ±0 through the whole stack: LastTimestep's backward leaves +0 there, a
// product or a col2im sum of ±0 gradients starting at +0 is +0, and the
// gating and ReLU backward map ±0 to ±0 (the activations are finite). A
// ±0 gradient times a finite weight or activation is a ±0 term, and each
// of these sums starts at +0 (a cleared gradient, a cleared dx, or a
// product cell that starts at +0). As kernels.go argues for the terms the
// row kernel skips: a sum in round-to-nearest is −0 only when both addends
// are, so a sum from +0 is never −0, and acc + ±0 is acc bit for bit for
// every acc that is not −0. Leaving the ±0 terms out is therefore exact.

// span is a run of consecutive timesteps [t, t+n) that a layer computes or
// reads; at is the index of step t among the steps of its list, so with m
// steps in the list, sample i's step t+j is compact row i·m + at + j.
type span struct{ t, n, at int }

// every is the step list of all n steps.
func every(n int) []span {
	if n < 1 {
		return nil
	}
	return []span{{0, n, 0}}
}

// spansOf returns the runs of the steps marked in mark.
func spansOf(mark []bool) []span {
	var out []span
	m := 0
	for t, on := range mark {
		if !on {
			continue
		}
		if k := len(out) - 1; k >= 0 && out[k].t+out[k].n == t {
			out[k].n++
		} else {
			out = append(out, span{t, 1, m})
		}
		m++
	}
	return out
}

// stepCount returns how many steps the list sp holds.
func stepCount(sp []span) int {
	if len(sp) == 0 {
		return 0
	}
	last := sp[len(sp)-1]
	return last.at + last.n
}

// stepMap is what a causal layer computes over an input of inLen steps:
// the output steps out, and the input steps in at which its Backward
// writes the input gradient — those the output steps read, or every step
// when the layer before it reads every step of that gradient.
type stepMap struct {
	out, in []span
	inLen   int
}

// narrower is a layer that can compute a subset of its output steps.
// narrow makes it compute the ascending output steps steps (nil: every
// step) and returns the input steps they read (nil: every step). With
// dxEvery, Backward writes the input gradient at every step.
type narrower interface {
	narrow(steps []int, dxEvery bool) []int
}

// causal reports whether l is a layer whose output steps read only input
// steps at or before them, so that it computes just the steps asked of it.
func causal(l Layer) bool {
	switch l := l.(type) {
	case *Conv1D:
		return l.Causal
	case *GatedResidualBlock, *ResidualConvBlock:
		return true
	}
	return false
}

// narrow walks n's layers back from the output, telling each causal layer
// which of its output steps the layers after it read (see above).
func (n *Network) narrow() {
	var steps []int // the steps of layer i's output that later layers read; nil is every step
	for i := len(n.Layers) - 1; i >= 0; i-- {
		switch l := n.Layers[i].(type) {
		case *LastTimestep:
			steps = []int{l.SeqLen - 1}
		case narrower:
			steps = l.narrow(steps, i > 0 && !causal(n.Layers[i-1]))
		default:
			steps = nil
		}
	}
}

// clearSteps sets the steps sp of every sample's row in d (rows of seqLen
// steps of width values) to +0.
func clearSteps(d []float64, batch, seqLen, width int, sp []span) {
	for _, s := range sp {
		if s.n == seqLen {
			clear(d[:batch*seqLen*width])
			continue
		}
		for i := 0; i < batch; i++ {
			o := (i*seqLen + s.t) * width
			clear(d[o : o+s.n*width])
		}
	}
}

// gatherSteps copies the steps sp of every sample's row of src (seqLen
// steps of width values) into the compact rows dst.
func gatherSteps(dst, src []float64, batch, seqLen, width int, sp []span) {
	m := stepCount(sp)
	for _, s := range sp {
		matrix.CopyBlock(dst[s.at*width:], m*width, src[s.t*width:], seqLen*width, batch, s.n*width)
	}
}

// scatterSteps copies the compact rows src to the steps sp of every
// sample's row of dst (seqLen steps of width values).
func scatterSteps(dst, src []float64, batch, seqLen, width int, sp []span) {
	m := stepCount(sp)
	for _, s := range sp {
		matrix.CopyBlock(dst[s.t*width:], seqLen*width, src[s.at*width:], m*width, batch, s.n*width)
	}
}

// addSteps adds the steps sp of every sample's row of src into dst, both
// rows of seqLen steps of width values, dst's value the left operand.
func addSteps(dst, src []float64, batch, seqLen, width int, sp []span) {
	for _, s := range sp {
		o := s.t * width
		matrix.AddBlock(dst[o:], seqLen*width, src[o:], seqLen*width, batch, s.n*width)
	}
}

// residual sets dst = x + r at the steps sp, x the left operand: the
// residual sum of a block whose compact rows r hold the steps sp of x's
// rows (seqLen steps of width values).
func residual(dst, x, r []float64, batch, seqLen, width int, sp []span) {
	m := stepCount(sp)
	for _, s := range sp {
		o := s.t * width
		matrix.CopyBlock(dst[o:], seqLen*width, x[o:], seqLen*width, batch, s.n*width)
		matrix.AddBlock(dst[o:], seqLen*width, r[s.at*width:], m*width, batch, s.n*width)
	}
}

// residualGrad sets dx, at the steps in, to the input gradient of a block
// whose output gradient at its computed steps out is the compact rows g,
// and whose branches' input gradients are branches (full rows, written at
// in): (g + branches[0]) + branches[1] ..., each add rounded once with the
// running sum the left operand. At a step of in the block does not
// compute, the output gradient is taken as +0 — there it was ±0 when every
// step was computed, and either zero plus a col2im sum, which is never −0,
// is that sum.
func residualGrad(dx, g []float64, batch, seqLen, width int, out, in []span, branches ...[]float64) {
	clearSteps(dx, batch, seqLen, width, in)
	scatterSteps(dx, g, batch, seqLen, width, out)
	for _, b := range branches {
		addSteps(dx, b, batch, seqLen, width, in)
	}
}
