package nn

import (
	"fmt"
	"math"
	"testing"

	"coda/internal/matrix"
)

// referenceInTime is Conv1D's tap map as the per-timestep loops below read
// it: the input timestep of (output step t, tap k), or -1 for causal
// padding.
func referenceInTime(c *Conv1D, t, k int) int {
	if c.Causal {
		tin := t - (c.Kernel-1-k)*c.Dilation
		if tin < 0 {
			return -1
		}
		return tin
	}
	return t + k*c.Dilation
}

// referenceIm2col is im2col as Conv1D ran it before its block kernels: a
// cleared buffer, then one copy per (sample, output step, tap).
func referenceIm2col(c *Conv1D, x *matrix.Matrix) *matrix.Matrix {
	outLen, ic := c.OutLen(), c.InChannels
	cols := matrix.New(x.Rows()*outLen, c.Kernel*ic)
	for i := 0; i < x.Rows(); i++ {
		in := x.Row(i)
		for t := 0; t < outLen; t++ {
			dst := cols.Row(i*outLen + t)
			for k := 0; k < c.Kernel; k++ {
				tin := referenceInTime(c, t, k)
				if tin < 0 {
					continue
				}
				copy(dst[k*ic:(k+1)*ic], in[tin*ic:(tin+1)*ic])
			}
		}
	}
	return cols
}

// referenceCol2im is col2im as Conv1D ran it before its block kernels: a
// scatter-add from +0, output steps ascending and taps ascending within
// each.
func referenceCol2im(c *Conv1D, dcols *matrix.Matrix, batch int) *matrix.Matrix {
	outLen, ic := c.OutLen(), c.InChannels
	dx := matrix.New(batch, c.SeqLen*ic)
	for i := 0; i < batch; i++ {
		dIn := dx.Row(i)
		for t := 0; t < outLen; t++ {
			src := dcols.Row(i*outLen + t)
			for k := 0; k < c.Kernel; k++ {
				tin := referenceInTime(c, t, k)
				if tin < 0 {
					continue
				}
				d := dIn[tin*ic : (tin+1)*ic]
				for ch, v := range src[k*ic : (k+1)*ic] {
					d[ch] += v
				}
			}
		}
	}
	return dx
}

// referenceConv runs c's forward and backward passes over the reference
// im2col and col2im and the same matrix products, returning the output,
// dW, db and dx.
func referenceConv(t *testing.T, c *Conv1D, x, grad *matrix.Matrix) (out, dW, db, dx *matrix.Matrix) {
	t.Helper()
	batch, outLen := x.Rows(), c.OutLen()
	cols := referenceIm2col(c, x)
	out = matrix.New(batch, outLen*c.Filters)
	view := func(m *matrix.Matrix) *matrix.Matrix {
		v, err := matrix.FromSlice(batch*outLen, c.Filters, m.Data())
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	ov, gv := view(out), view(grad)
	if _, err := matrix.MulInto(ov, cols, c.w.W); err != nil {
		t.Fatal(err)
	}
	if err := matrix.AddRowVec(ov, c.b.W.Row(0)); err != nil {
		t.Fatal(err)
	}
	dW, db = matrix.New(c.Kernel*c.InChannels, c.Filters), matrix.New(1, c.Filters)
	if err := matrix.AccumColSums(db.Row(0), gv); err != nil {
		t.Fatal(err)
	}
	if err := matrix.MulTransposeAAccum(dW, cols, gv); err != nil {
		t.Fatal(err)
	}
	dcols, err := matrix.MulTransposeBInto(nil, gv, c.w.W)
	if err != nil {
		t.Fatal(err)
	}
	return out, dW, db, referenceCol2im(c, dcols, batch)
}

// sameBits fails unless got and want hold the same bits, element by
// element.
func sameBits(t *testing.T, what string, got, want *matrix.Matrix) {
	t.Helper()
	g, w := got.Data(), want.Data()
	if len(g) != len(w) {
		t.Fatalf("%s: %d elements, reference %d", what, len(g), len(w))
	}
	for i := range w {
		if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
			t.Fatalf("%s element %d = %v (%#x), reference %v (%#x)", what, i, g[i], math.Float64bits(g[i]), w[i], math.Float64bits(w[i]))
		}
	}
}

// TestConv1DMatchesReference holds Conv1D's block-kernel im2col and col2im
// to the per-timestep loops they replaced, bit for bit — the output, dW, db
// and dx: causal and valid convolutions, kernels 1-3, dilations 1, 2 and 4,
// 1, 2, 8 and 9 input channels, and a causal sequence shorter than the
// receptive field, so that some taps read only padding. The inputs hold −0
// and NaN, the gradient NaN. Each layer runs twice, on 12 rows and then on
// 3, so the second pass reuses buffers the first left dirty, and the
// blocks split by step in one pass and by sample in the other (runBlocks). It runs on this CPU's kernel level;
// internal/matrix holds every level's CopyBlock and AddBlock to their
// portable twins, so the result holds on each.
func TestConv1DMatchesReference(t *testing.T) {
	src, rng := testRand(11)
	fill := func(m *matrix.Matrix) {
		d := m.Data()
		for i := range d {
			switch rng.Intn(23) {
			case 0:
				d[i] = math.Copysign(0, -1)
			case 1:
				d[i] = math.NaN()
			default:
				d[i] = rng.NormFloat64()
			}
		}
	}
	for _, causal := range []bool{true, false} {
		for kernel := 1; kernel <= 3; kernel++ {
			for _, dilation := range []int{1, 2, 4} {
				for _, ic := range []int{1, 2, 8, 9} {
					for _, seqLen := range []int{8, 3} {
						name := fmt.Sprintf("causal=%v k=%d d=%d ic=%d T=%d", causal, kernel, dilation, ic, seqLen)
						c := NewConv1D(seqLen, ic, 3, kernel, dilation, causal, src)
						if c.OutLen() < 1 {
							continue
						}
						for _, batch := range []int{12, 3} {
							x := matrix.New(batch, seqLen*ic)
							grad := matrix.New(batch, c.OutLen()*c.Filters)
							fill(x)
							fill(grad)
							wantOut, wantDW, wantDB, wantDX := referenceConv(t, c, x, grad)
							out, err := c.Forward(x, true)
							if err != nil {
								t.Fatal(err)
							}
							sameBits(t, name+" output", out, wantOut)
							c.w.zeroGrad()
							c.b.zeroGrad()
							dx, err := c.Backward(grad, true)
							if err != nil {
								t.Fatal(err)
							}
							sameBits(t, name+" dW", c.w.Grad, wantDW)
							sameBits(t, name+" db", c.b.Grad, wantDB)
							sameBits(t, name+" dx", dx, wantDX)
						}
					}
				}
			}
		}
	}
}
