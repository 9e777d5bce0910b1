package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// specials are the values every element-wise kernel must carry through as
// its twin does: signed zeros, infinities, NaNs, subnormals and the edges
// of the normal range.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0xfff8000000000001), 5e-324, -5e-324, 2.2e-308, -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5,
}

// elemLengths are the lengths the kernel tests run: every length up to 17
// (no element, a masked tail alone, one or two full vectors of either
// width with every tail) and the lane edges of longer runs.
var elemLengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 23, 24, 25, 31, 32, 33, 63, 64, 65}

// elemStreams is one call of each element-wise kernel over n elements.
type elemStreams struct {
	a, b, sel, draws []float64
	w, g, m, v       []float64
	keep, scale      float64
	adam             AdamCoeffs
}

// newElemStreams fills every stream from next. The draws are next's values
// too, so a fuzzer reaches every comparison with keep.
func newElemStreams(n int, next func() float64) *elemStreams {
	fill := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	// Adam's coefficients as nn.Adam's third step takes them, its
	// complements rounded at run time (1 − 0.9 is not the constant 0.1).
	b1, b2, t := 0.9, 0.999, 3.0
	return &elemStreams{
		a: fill(), b: fill(), sel: fill(), draws: fill(),
		w: fill(), g: fill(), m: fill(), v: fill(),
		keep: 0.75, scale: 1 / 0.75,
		adam: AdamCoeffs{
			Beta1: b1, OneMinusBeta1: 1 - b1, Beta2: b2, OneMinusBeta2: 1 - b2,
			LR: 0.01, C1: 1 - math.Pow(b1, t), C2: 1 - math.Pow(b2, t), Eps: 1e-8,
		},
	}
}

// elemOutputs names elemKernelsOn's outputs, in its order.
var elemOutputs = []string{
	"MulElems", "KeepPositive", "KeepPositive in place",
	"DropoutApply mask", "DropoutApply out", "AdamUpdate w", "AdamUpdate m", "AdamUpdate v",
}

// elemKernelsOn runs every element-wise kernel over s on the current path
// and returns each output with its guards.
func elemKernelsOn(t testing.TB, s *elemStreams) [][]float64 {
	t.Helper()
	n := len(s.a)
	out := make([][]float64, len(elemOutputs))
	in := make([][]float64, len(elemOutputs))
	for k := range out {
		out[k], in[k] = guarded(n)
	}
	MulElems(in[0], s.a, s.b)
	KeepPositive(in[1], s.a, s.sel)
	copy(in[2], s.a)
	KeepPositive(in[2], in[2], in[2])
	copy(in[3], s.draws)
	DropoutApply(in[3], in[4], s.a, s.keep, s.scale)
	copy(in[5], s.w)
	copy(in[6], s.m)
	copy(in[7], s.v)
	AdamUpdate(in[5], s.g, in[6], in[7], &s.adam)
	return out
}

// blockOutputs names blockKernelsOn's outputs, in its order.
var blockOutputs = []string{"CopyBlock", "AddBlock"}

// blockKernelsOn runs CopyBlock and AddBlock over a rows x cols block with
// dst row stride ds and src row stride ss, on the current path; dst starts
// as init. It returns each dst whole, so the cells between rows are checked
// as guards.
func blockKernelsOn(rows, cols, ds, ss int, src, init []float64) [][]float64 {
	var out [2][]float64
	for k := range out {
		all, dst := guarded(len(init))
		copy(dst, init)
		out[k] = all
		if k == 0 {
			CopyBlock(dst, ds, src, ss, rows, cols)
		} else {
			AddBlock(dst, ds, src, ss, rows, cols)
		}
	}
	return out[:]
}

// blockSpan is the length a block of rows with stride s and cols columns
// spans.
func blockSpan(rows, s, cols int) int {
	if rows == 0 || cols == 0 {
		return 0
	}
	return (rows-1)*s + cols
}

// pathsAgree holds each output of run on every assembly path this CPU runs
// to the portable path's, bit for bit with any two NaNs equal.
func pathsAgree(t *testing.T, names []string, run func() [][]float64) {
	t.Helper()
	var want [][]float64
	for _, path := range KernelPaths() {
		var got [][]float64
		if err := WithKernelPath(path, func() { got = run() }); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got // KernelPaths names the portable path first
			continue
		}
		for k, name := range names {
			sameActivationBits(t, name+" on "+path, got[k], want[k])
		}
	}
}

// specialStream returns a generator that cycles through specials with
// seeded uniforms and raw bit patterns between them, so every lane of a
// vector meets every special value somewhere.
func specialStream(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	i := 0
	return func() float64 {
		i++
		switch i % 3 {
		case 0:
			return specials[rng.Intn(len(specials))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		}
		return 4*rng.Float64() - 2
	}
}

// TestElementwiseKernelsPathsAgree holds the block and element-wise
// kernels at every assembly level this CPU runs to their twins, bit for
// bit, at every length up to 17 and at the lane edges past it, on streams
// full of special values and raw bit patterns; guard elements either side
// of every output must come through untouched. The block kernels run every
// shape up to 4 rows by 17 columns, with dst rows packed or apart and src
// rows packed, one apart or a row apart.
func TestElementwiseKernelsPathsAgree(t *testing.T) {
	if len(KernelPaths()) == 1 {
		t.Skip("no assembly kernel on this CPU: there is one path")
	}
	next := specialStream(6)
	for _, n := range elemLengths {
		s := newElemStreams(n, next)
		pathsAgree(t, elemOutputs, func() [][]float64 { return elemKernelsOn(t, s) })
	}
	for rows := 0; rows <= 4; rows++ {
		for cols := 0; cols <= 17; cols++ {
			for _, ds := range []int{cols, cols + 3} {
				for _, ss := range []int{cols, cols + 1, 2*cols + 1} {
					src := make([]float64, blockSpan(rows, ss, cols))
					init := make([]float64, blockSpan(rows, ds, cols))
					for _, v := range [][]float64{src, init} {
						for i := range v {
							v[i] = next()
						}
					}
					pathsAgree(t, blockOutputs, func() [][]float64 {
						return blockKernelsOn(rows, cols, ds, ss, src, init)
					})
				}
			}
		}
	}
}

// TestElementwiseSpecialValues pins, on every path, what the kernels do
// with signed zeros, infinities, NaNs and subnormals.
func TestElementwiseSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	inf, nan := math.Inf(1), math.NaN()
	bits := math.Float64bits
	onEveryPath(t, func(t *testing.T) {
		// Eleven elements: a full vector of either width and a tail.
		sel := []float64{0, negZero, nan, math.Inf(-1), -1e-310, 5e-324, 1, inf, -2, 3, nan}
		src := []float64{1, 2, 3, 4, 5, -6, negZero, nan, inf, math.Inf(-1), 7}
		got := make([]float64, len(src))
		KeepPositive(got, src, sel)
		for i, s := range sel {
			want := 0.0
			if s > 0 {
				want = src[i]
			}
			if bits(got[i]) != bits(want) && !(got[i] != got[i] && want != want) {
				t.Errorf("KeepPositive(%v where %v) = %v (%#x), want %v", src[i], s, got[i], bits(got[i]), want)
			}
		}
		copy(got, sel)
		KeepPositive(got, got, got)
		for i, s := range sel {
			want := 0.0
			if s > 0 {
				want = s
			}
			if bits(got[i]) != bits(want) {
				t.Errorf("ReLU(%v) = %v (%#x), want %v", s, got[i], bits(got[i]), want)
			}
		}

		// Dropped elements read +0 whatever src holds; kept ones src·scale.
		draws := []float64{0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.74999, 0.75, 0.5, 0.99}
		dsrc := []float64{inf, nan, negZero, inf, nan, negZero, 3, 1, 1, 5e-324, -1}
		mask := append([]float64(nil), draws...)
		out := make([]float64, len(dsrc))
		DropoutApply(mask, out, dsrc, 0.75, 4)
		for i, d := range draws {
			wantMask, wantOut := 0.0, 0.0
			if d < 0.75 {
				wantMask, wantOut = 4, dsrc[i]*4
			}
			if bits(mask[i]) != bits(wantMask) {
				t.Errorf("DropoutApply draw %v: mask %v, want %v", d, mask[i], wantMask)
			}
			if bits(out[i]) != bits(wantOut) && !(out[i] != out[i] && wantOut != wantOut) {
				t.Errorf("DropoutApply draw %v of %v: out %v (%#x), want %v", d, dsrc[i], out[i], bits(out[i]), wantOut)
			}
		}
		// The backward product keeps an Inf or NaN gradient a NaN where the
		// mask dropped it.
		grad := []float64{inf, nan, math.Inf(-1), 1, 2, 3, 4, 5, 6, 7, 8}
		dx := make([]float64, len(grad))
		MulElems(dx, grad, mask)
		for i, g := range grad {
			if i < 3 && dx[i] == dx[i] || i >= 3 && bits(dx[i]) != bits(g*mask[i]) {
				t.Errorf("MulElems(%v, %v) = %v", g, mask[i], dx[i])
			}
		}

		// +0 + −0 is +0 and −0 + −0 is −0 in a block.
		d := []float64{0, negZero, negZero, 5e-324}
		AddBlock(d, 1, []float64{negZero, 0, negZero, -5e-324}, 1, 4, 1)
		for i, want := range []float64{0, 0, negZero, 0} {
			if bits(d[i]) != bits(want) {
				t.Errorf("AddBlock element %d = %v (%#x), want %#x", i, d[i], bits(d[i]), bits(want))
			}
		}

		// A zero gradient on zero moments leaves every weight's bits alone.
		w := []float64{negZero, 0, 5e-324, inf, -1, 2, 3, 4, 5}
		want := append([]float64(nil), w...)
		k := AdamCoeffs{Beta1: 0.9, OneMinusBeta1: 0.1, Beta2: 0.999, OneMinusBeta2: 0.001, LR: 0.01, C1: 0.1, C2: 0.001, Eps: 1e-8}
		AdamUpdate(w, make([]float64, 9), make([]float64, 9), make([]float64, 9), &k)
		for i := range w {
			if bits(w[i]) != bits(want[i]) {
				t.Errorf("AdamUpdate with g = 0: w[%d] %v → %v", i, want[i], w[i])
			}
		}
	})
}

// TestElementwiseTwinsMatchPerElementForm pins the twins to the plain
// per-element loops the nn layers ran before the kernels — ReLU's and
// Dropout's branches, Adam's statement order — so that
// moving a layer onto a kernel cannot move a score bit.
func TestElementwiseTwinsMatchPerElementForm(t *testing.T) {
	s := newElemStreams(37, specialStream(7))
	var out [][]float64
	if err := WithKernelPath("portable", func() { out = elemKernelsOn(t, s) }); err != nil {
		t.Fatal(err)
	}
	const guard = 5
	k := s.adam
	for i := range s.a {
		relu := 0.0
		if s.a[i] > 0 {
			relu = s.a[i]
		}
		mask, drop := 0.0, 0.0
		if s.draws[i] < s.keep {
			mask, drop = s.scale, s.a[i]*s.scale
		}
		gi := s.g[i]
		m := k.Beta1*s.m[i] + (1-k.Beta1)*gi
		v := k.Beta2*s.v[i] + (1-k.Beta2)*gi*gi
		w := s.w[i] - k.LR*(m/k.C1)/(math.Sqrt(v/k.C2)+k.Eps)
		for j, want := range []float64{s.a[i] * s.b[i], keepIf(s.a[i], s.sel[i] > 0), relu, mask, drop, w, m, v} {
			got := out[j][guard+i]
			if math.Float64bits(got) != math.Float64bits(want) && !(got != got && want != want) {
				t.Errorf("%s element %d = %v, per-element form %v", elemOutputs[j], i, got, want)
			}
		}
	}
}

// TestElementwiseKernelsPanicOnShortSlices: a slice shorter than the shape
// is a caller's bug, not a partial result.
func TestElementwiseKernelsPanicOnShortSlices(t *testing.T) {
	short, full := make([]float64, 5), make([]float64, 6)
	k := AdamCoeffs{}
	for name, call := range map[string]func(){
		"CopyBlock dst":  func() { CopyBlock(make([]float64, 7), 3, full, 2, 3, 2) },
		"CopyBlock src":  func() { CopyBlock(full, 2, short, 2, 3, 2) },
		"AddBlock dst":   func() { AddBlock(short, 2, full, 2, 3, 2) },
		"AddBlock src":   func() { AddBlock(full, 2, make([]float64, 7), 3, 3, 2) },
		"AddBlock shape": func() { AddBlock(full, 2, full, 2, -1, 2) },
		"MulElems":       func() { MulElems(full, full, short) },
		"KeepPositive":   func() { KeepPositive(full, short, full) },
		"DropoutApply":   func() { DropoutApply(short, full, full, 0.5, 2) },
		"AdamUpdate":     func() { AdamUpdate(full, full, full, short, &k) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with a short slice did not panic", name)
				}
			}()
			call()
		}()
	}
}

// FuzzElementwise holds the block and element-wise kernels at every level
// this CPU runs to their twins bit for bit, any two NaNs equal, on 0-67
// elements (and blocks of 1-4 rows by 0-17 columns) whose values are raw
// bit patterns from the fuzzer (±0, ±Inf, NaN and subnormals among them);
// guard elements either side of every output must come through untouched.
// Plain `go test` replays the seed corpus in testdata/fuzz/FuzzElementwise.
func FuzzElementwise(f *testing.F) {
	if len(KernelPaths()) == 1 {
		f.Skip("no assembly kernel on this CPU: there is one path")
	}
	f.Add(uint8(13), uint8(2), uint8(3), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f})
	f.Fuzz(func(t *testing.T, n, rows, cols uint8, data []byte) {
		i := 0
		next := func() float64 {
			var b [8]byte
			if len(data) > 0 {
				copy(b[:], data[(8*i)%len(data):])
			}
			i++
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		s := newElemStreams(int(n%68), next)
		pathsAgree(t, elemOutputs, func() [][]float64 { return elemKernelsOn(t, s) })
		r, c := int(rows%4)+1, int(cols%18)
		ds, ss := c+int(rows/4%3), []int{c, c + 1, 2*c + 1}[int(cols/18)%3]
		src := make([]float64, blockSpan(r, ss, c))
		init := make([]float64, blockSpan(r, ds, c))
		for _, v := range [][]float64{src, init} {
			for j := range v {
				v[j] = next()
			}
		}
		pathsAgree(t, blockOutputs, func() [][]float64 { return blockKernelsOn(r, c, ds, ss, src, init) })
	})
}
