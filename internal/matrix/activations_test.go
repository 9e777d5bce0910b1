package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The libm forms the activations are held to.
func sigmoidLibm(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// activations names the two primitives with their twins and libm forms.
var activations = []struct {
	name        string
	fn, generic func(dst, src []float64)
	libm        func(float64) float64
}{
	{"Sigmoid", Sigmoid, sigmoidGeneric, sigmoidLibm},
	{"Tanh", Tanh, tanhGeneric, math.Tanh},
}

// ulps is the distance between a and b in units in the last place: the
// number of float64s between them, across zero included.
func ulps(a, b float64) uint64 {
	ord := func(f float64) int64 {
		u := int64(math.Float64bits(f))
		if u < 0 {
			return math.MinInt64 - u
		}
		return u
	}
	d := ord(a) - ord(b)
	if d < 0 {
		d = -d
	}
	return uint64(d)
}

// sweep is n seeded inputs in [−700, 700]: half uniform, half with a
// log-uniform magnitude down to 1e−20, so the small arguments where tanh is
// almost x and both activations are almost linear are as well covered as
// the saturating ones.
func sweep(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = 1400*rng.Float64() - 700
			continue
		}
		x := math.Pow(10, -20+rng.Float64()*(20+math.Log10(700)))
		if rng.Intn(2) == 0 {
			x = -x
		}
		xs[i] = x
	}
	return xs
}

// TestActivationsWithin4ULPOfLibm holds both paths to the documented bound
// against the libm forms over a million seeded inputs with |x| <= 700.
func TestActivationsWithin4ULPOfLibm(t *testing.T) {
	xs := sweep(1, 1<<20)
	got := make([]float64, len(xs))
	onEveryPath(t, func(t *testing.T) {
		for _, a := range activations {
			a.fn(got, xs)
			var worst uint64
			var at float64
			for i, x := range xs {
				if d := ulps(got[i], a.libm(x)); d > worst {
					worst, at = d, x
				}
			}
			t.Logf("%s: largest error %d ulp (at %v)", a.name, worst, at)
			if worst > 4 {
				t.Errorf("%s(%v) = %v, libm %v: %d ulp apart, want <= 4", a.name, at, valueAt(a.fn, at), a.libm(at), worst)
			}
		}
	})
}

// valueAt is a's value at one point.
func valueAt(fn func(dst, src []float64), x float64) float64 {
	out := []float64{0}
	fn(out, []float64{x})
	return out[0]
}

// TestActivationsSpecialValues pins the edges both paths share: signed
// zeros, the infinities, NaN, and saturation below −708.
func TestActivationsSpecialValues(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	onEveryPath(t, func(t *testing.T) {
		for _, c := range []struct {
			fn   func(dst, src []float64)
			name string
			x    float64
			want float64
		}{
			{Sigmoid, "Sigmoid", 0, 0.5},
			{Sigmoid, "Sigmoid", negZero, 0.5},
			{Sigmoid, "Sigmoid", math.Inf(1), 1},
			{Sigmoid, "Sigmoid", math.Inf(-1), 0},
			{Sigmoid, "Sigmoid", -708.0000001, 0},
			{Sigmoid, "Sigmoid", -745.5, 0},
			{Sigmoid, "Sigmoid", -1e300, 0},
			{Sigmoid, "Sigmoid", 40, 1},
			{Sigmoid, "Sigmoid", 1e300, 1},
			{Tanh, "Tanh", 0, 0},
			{Tanh, "Tanh", negZero, negZero},
			{Tanh, "Tanh", math.Inf(1), 1},
			{Tanh, "Tanh", math.Inf(-1), -1},
			{Tanh, "Tanh", -708.0000001, -1},
			{Tanh, "Tanh", 354.5, 1},
			{Tanh, "Tanh", -1e300, -1},
			{Tanh, "Tanh", 5e-324, 5e-324},
			{Tanh, "Tanh", -1e-300, -1e-300},
		} {
			if got := valueAt(c.fn, c.x); math.Float64bits(got) != math.Float64bits(c.want) {
				t.Errorf("%s(%v) = %v (%#x), want %v (%#x)", c.name, c.x, got, math.Float64bits(got), c.want, math.Float64bits(c.want))
			}
		}
		// Just above the clamp the value is still e^z, normal and close to libm.
		if got, want := valueAt(Sigmoid, -707.9), sigmoidLibm(-707.9); ulps(got, want) > 4 {
			t.Errorf("Sigmoid(-707.9) = %v, libm %v", got, want)
		}
		for _, a := range activations {
			for _, x := range []float64{nan, -nan, math.Float64frombits(0x7ff0000000000001)} {
				if got := valueAt(a.fn, x); got == got {
					t.Errorf("%s(NaN %#x) = %v, want NaN", a.name, math.Float64bits(x), got)
				}
			}
		}
	})
}

// TestActivationsPathsAgree holds the assembly kernels at every level this
// CPU runs to their twins bit for bit over a million seeded inputs, the
// sweep's and raw random bit patterns (subnormals, huge values and NaNs
// among them), and in place.
func TestActivationsPathsAgree(t *testing.T) {
	paths := KernelPaths()[1:]
	if len(paths) == 0 {
		t.Skip("no assembly kernel on this CPU: there is one path")
	}
	xs := sweep(2, 1<<20)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < len(xs); i += 3 {
		xs[i] = math.Float64frombits(rng.Uint64())
	}
	want, got := make([]float64, len(xs)), make([]float64, len(xs))
	for _, a := range activations {
		a.generic(want, xs)
		for _, path := range paths {
			err := WithKernelPath(path, func() {
				a.fn(got, xs)
				sameActivationBits(t, a.name+" on "+path, got, want)
				copy(got, xs)
				a.fn(got, got)
				sameActivationBits(t, a.name+" in place on "+path, got, want)
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}

// sameActivationBits compares bit for bit, with any two NaNs equal: which
// NaN an operation returns is the CPU's operand-order rule, not part of the
// contract.
func sameActivationBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d = %v (%#x), twin %v (%#x)", name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestActivationsPanicOnShortDst: a dst shorter than src is a caller's bug,
// not a partial result.
func TestActivationsPanicOnShortDst(t *testing.T) {
	for _, a := range activations {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s into a shorter dst did not panic", a.name)
				}
			}()
			a.fn(make([]float64, 2, 8), make([]float64, 3))
		}()
	}
}

// FuzzActivations holds the assembly kernels at every level this CPU runs
// to their twins on slices of 0-67 elements starting at any offset into
// their backing arrays, so the full vectors, every masked tail and
// unaligned starts all run; guard elements either side of dst must come
// through untouched. Plain `go test` replays the seed corpus in
// testdata/fuzz/FuzzActivations.
func FuzzActivations(f *testing.F) {
	paths := KernelPaths()[1:]
	if len(paths) == 0 {
		f.Skip("no assembly kernel on this CPU: there is one path")
	}
	f.Add(uint8(13), uint8(1), false, []byte{0, 0, 0, 0, 0, 0xf0, 0x3f})
	f.Fuzz(func(t *testing.T, n, off uint8, inPlace bool, data []byte) {
		const guard = 5
		n, off = n%68, off%4
		src := make([]float64, int(off)+int(n))[off:]
		for i := range src {
			var b [8]byte
			if len(data) > 0 {
				copy(b[:], data[(8*i)%len(data):])
			}
			src[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		for _, a := range activations {
			want := make([]float64, guard+len(src)+guard)
			for i := range want {
				want[i] = float64(i) + 0.5
			}
			got := make([]float64, len(want))
			a.generic(want[guard:guard+len(src)], src)
			for _, path := range paths {
				for i := range got {
					got[i] = float64(i) + 0.5
				}
				in := src
				if inPlace {
					copy(got[guard:], src)
					in = got[guard : guard+len(src)]
				}
				if err := WithKernelPath(path, func() { a.fn(got[guard:guard+len(src)], in) }); err != nil {
					t.Fatal(err)
				}
				sameActivationBits(t, a.name+" on "+path, got, want)
			}
		}
	})
}
