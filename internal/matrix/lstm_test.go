package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// lstmStreams is one call of each LSTM kernel over rows x hidden elements:
// the gather's projections (xw with a row stride of 5·hidden, as a
// timestep's rows sit in the input projection, and hw with a stride of
// 4·hidden or 0) and biases, the gate blocks gate-major, and the rest.
type lstmStreams struct {
	rows, hidden  int
	xw, hw, b     []float64
	xs, hs        int
	gates         []float64 // 4 blocks of rows*hidden: i, f, g, o
	tc            []float64
	cPrev, dh, dc []float64
}

// newLSTMStreams fills every stream from next.
func newLSTMStreams(rows, hidden int, zeroState bool, next func() float64) *lstmStreams {
	n := rows * hidden
	s := &lstmStreams{rows: rows, hidden: hidden, xs: 5 * hidden, hs: 4 * hidden}
	fill := func(k int) []float64 {
		v := make([]float64, k)
		for i := range v {
			v[i] = next()
		}
		return v
	}
	s.xw, s.b = fill((rows-1)*s.xs+4*hidden), fill(4*hidden)
	if zeroState {
		s.hs = 0
	}
	s.hw = fill((rows-1)*s.hs + 4*hidden)
	s.gates, s.tc = fill(4*n), fill(n)
	s.cPrev, s.dh, s.dc = fill(n), fill(n), fill(n)
	return s
}

// guarded returns a slice of n elements inside guard elements either side,
// all holding values that no kernel writes, and the inner slice.
func guarded(n int) (all, inner []float64) {
	const guard = 5
	all = make([]float64, guard+n+guard)
	for i := range all {
		all[i] = float64(i) + 0.5
	}
	return all, all[guard : guard+n]
}

// lstmOutputs names the kernels' outputs, in lstmKernelsOn's order.
var lstmOutputs = []string{"LSTMGather", "LSTMCell c", "LSTMCell tc", "hidden (MulElems)", "LSTMGateGrads dg", "LSTMGateGrads dc"}

// lstmKernelsOn runs the four kernels over s on the current path and
// returns every output with its guards.
func lstmKernelsOn(s *lstmStreams) [][]float64 {
	n := s.rows * s.hidden
	var out, inner [6][]float64
	for k, size := range []int{4 * n, n, n, n, 4 * n, n} {
		out[k], inner[k] = guarded(size)
	}
	copy(inner[5], s.dc)
	LSTMGather(inner[0], s.xw, s.xs, s.hw, s.hs, s.b, s.rows, s.hidden)
	LSTMCell(inner[1], inner[2], s.cPrev, s.gates[:n], s.gates[n:2*n], s.gates[2*n:3*n])
	MulElems(inner[3], s.gates[3*n:], s.tc)
	LSTMGateGrads(inner[4], s.gates, s.tc, s.cPrev, s.dh, inner[5], s.rows, s.hidden)
	return out[:]
}

// TestLSTMKernelsPathsAgree holds the AVX2 LSTM kernels, which both
// assembly levels run, to their twins bit for bit at every row width up to
// 13 (each full-vector count and every masked tail), on gate-like values
// and on raw bit patterns.
func TestLSTMKernelsPathsAgree(t *testing.T) {
	if len(KernelPaths()) == 1 {
		t.Skip("no assembly kernel on this CPU: there is one path")
	}
	rng := rand.New(rand.NewSource(4))
	values := func() float64 { return 4*rng.Float64() - 2 }
	raw := func() float64 {
		if rng.Intn(3) == 0 {
			return math.Float64frombits(rng.Uint64())
		}
		return values()
	}
	for _, next := range []func() float64{values, raw} {
		for rows := 1; rows <= 5; rows++ {
			for hidden := 1; hidden <= 13; hidden++ {
				s := newLSTMStreams(rows, hidden, rows%2 == 0, next)
				pathsAgree(t, lstmOutputs, func() [][]float64 { return lstmKernelsOn(s) })
			}
		}
	}
	s := newLSTMStreams(32, 12, false, values)
	pathsAgree(t, lstmOutputs, func() [][]float64 { return lstmKernelsOn(s) })
}

// TestLSTMTwinMatchesPerElementForm pins the kernels to the plain
// per-element expressions of an unbatched LSTM step, in the same order, so
// that batching the step cannot move a score bit.
func TestLSTMTwinMatchesPerElementForm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := newLSTMStreams(3, 5, false, func() float64 { return 4*rng.Float64() - 2 })
	out := lstmKernelsOn(s)
	const guard = 5
	n, H := 15, 5
	for k := 0; k < n; k++ {
		r, j := k/H, k%H
		ig, fg, cg, og := s.gates[k], s.gates[n+k], s.gates[2*n+k], s.gates[3*n+k]
		wantC := fg*s.cPrev[k] + ig*cg
		wantH := og * s.tc[k]
		tcv := s.tc[k]
		dct := s.dc[k] + s.dh[k]*og*(1-tcv*tcv)
		wantDG := []float64{
			dct * cg * ig * (1 - ig),
			dct * s.cPrev[k] * fg * (1 - fg),
			dct * ig * (1 - cg*cg),
			s.dh[k] * tcv * og * (1 - og),
		}
		type check struct {
			name      string
			got, want float64
		}
		checks := []check{
			{"c", out[1][guard+k], wantC}, {"tc", out[2][guard+k], wantC}, {"h", out[3][guard+k], wantH},
			{"dc", out[5][guard+k], dct * fg},
			{"dg i", out[4][guard+r*4*H+j], wantDG[0]}, {"dg f", out[4][guard+r*4*H+H+j], wantDG[1]},
			{"dg g", out[4][guard+r*4*H+2*H+j], wantDG[2]}, {"dg o", out[4][guard+r*4*H+3*H+j], wantDG[3]},
		}
		for q := 0; q < 4; q++ {
			checks = append(checks, check{"pre", out[0][guard+q*n+k], s.xw[r*s.xs+q*H+j] + s.hw[r*s.hs+q*H+j] + s.b[q*H+j]})
		}
		for _, p := range checks {
			if math.Float64bits(p.got) != math.Float64bits(p.want) {
				t.Errorf("element %d %s = %v, per-element form %v", k, p.name, p.got, p.want)
			}
		}
	}
}

// TestLSTMKernelsPanicOnShortSlices: a slice shorter than the shape is a
// caller's bug, not a partial result.
func TestLSTMKernelsPanicOnShortSlices(t *testing.T) {
	s := newLSTMStreams(2, 3, false, func() float64 { return 0.5 })
	for name, call := range map[string]func(){
		"LSTMGather":    func() { LSTMGather(make([]float64, 24), s.xw[:20], s.xs, s.hw, s.hs, s.b, 2, 3) },
		"LSTMCell":      func() { LSTMCell(make([]float64, 6), make([]float64, 5), s.cPrev, s.gates, s.gates, s.gates) },
		"LSTMGateGrads": func() { LSTMGateGrads(make([]float64, 23), s.gates, s.tc, s.cPrev, s.dh, s.dc, 2, 3) },
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

// FuzzLSTMCell holds the AVX2 LSTM kernels — gather, cell, hidden and gate
// gradients — to their twins bit for bit, any two NaNs equal, on rows of 1-4
// and hidden widths of 1-13 whose elements are raw bit patterns from the
// fuzzer (±0, ±Inf, NaN and subnormals among them), with the recurrent
// projection one row per sample or (odd widths) one shared row; guard
// elements either side of every output must come through untouched. Plain
// `go test` replays the seed corpus in testdata/fuzz/FuzzLSTMCell.
func FuzzLSTMCell(f *testing.F) {
	if len(KernelPaths()) == 1 {
		f.Skip("no assembly kernel on this CPU: there is one path")
	}
	f.Add(uint8(2), uint8(12), []byte{0, 0, 0, 0, 0, 0, 0xe0, 0x3f})
	f.Fuzz(func(t *testing.T, rows, hidden uint8, data []byte) {
		r, h := int(rows%4)+1, int(hidden%13)+1
		i := 0
		next := func() float64 {
			var b [8]byte
			if len(data) > 0 {
				copy(b[:], data[(8*i)%len(data):])
			}
			i++
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		s := newLSTMStreams(r, h, h%2 == 1, next)
		pathsAgree(t, lstmOutputs, func() [][]float64 { return lstmKernelsOn(s) })
	})
}
