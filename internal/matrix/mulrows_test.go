package matrix

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// onBothPaths runs fn with the kernels on their portable paths and, where
// the CPU has them, on the assembly paths.
func onBothPaths(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	defer func(v bool) { useAVX2 = v }(useAVX2)
	asm := useAVX2
	useAVX2 = false
	t.Run("portable", fn)
	if !asm {
		t.Log("no AVX2 on this CPU: the assembly path was not run")
		return
	}
	useAVX2 = true
	t.Run("asm", fn)
}

func elemBits[T Float](v T) uint64 {
	if f, ok := any(v).(float32); ok {
		return uint64(math.Float32bits(f))
	}
	return math.Float64bits(float64(v))
}

func sameBits[T Float](t *testing.T, name string, got, want []T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", name, len(got), len(want))
	}
	for i := range want {
		if elemBits(got[i]) != elemBits(want[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", name, i, got[i], elemBits(got[i]), want[i], elemBits(want[i]))
		}
	}
}

// hardNaN is the quiet NaN this CPU produces for Inf-Inf. Test inputs carry
// this one NaN pattern only: which of two different NaNs an operation
// returns is the CPU's operand-order rule, which neither IEEE 754 nor Go
// fixes, so it is not part of the contract.
func hardNaN[T Float]() T {
	inf := T(math.Inf(1))
	return inf - inf
}

// awkward fills m with normal values and, when special is set, a sprinkling
// of the values that tell a skipped term from an added one: +0, -0, NaN and
// the infinities (infinities only when onlyInf is set, as for b).
func awkward[T Float](rng *rand.Rand, m *Mat[T], special, onlyInf bool) {
	negZero := T(math.Copysign(0, -1))
	for i := range m.data {
		m.data[i] = T(rng.NormFloat64())
		if !special {
			continue
		}
		switch r := rng.Intn(24); {
		case r == 0:
			m.data[i] = T(math.Inf(1))
		case r == 1:
			m.data[i] = T(math.Inf(-1))
		case onlyInf:
		case r == 2 || r == 3:
			m.data[i] = 0
		case r == 4 || r == 5:
			m.data[i] = negZero
		case r == 6:
			m.data[i] = hardNaN[T]()
		}
	}
}

// The three oracles below are the loops this package ran before the row
// kernel existed, element width aside: naiveMulInto for a*b, and these two.

// oracleMulTAAccum is dst += aᵀ*b, k outermost, zero a elements skipped.
func oracleMulTAAccum[T Float](dst, a, b *Mat[T]) {
	for k := 0; k < a.rows; k++ {
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			crow := dst.Row(i)
			for j, bv := range b.Row(k) {
				crow[j] += av * bv
			}
		}
	}
}

// oracleMulTB is dst = a*bᵀ as plain ascending dots, no term skipped.
func oracleMulTB[T Float](a, b *Mat[T]) *Mat[T] {
	dst := NewOf[T](a.rows, b.rows)
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.rows; j++ {
			var s T
			for kk, av := range a.Row(i) {
				s += av * b.Row(j)[kk]
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

// testFormsMatchOracles is the bitwise contract as a property: random
// shapes in [0,70]^3 — including n below and off the vector width, k = 0
// and empty outputs — with finite and non-finite inputs.
func testFormsMatchOracles[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		m, k, n := rng.Intn(71), rng.Intn(71), rng.Intn(71)
		if iter%7 == 0 {
			n = rng.Intn(9) // the tail panels: half vectors and single elements
		}
		special := iter%2 == 1
		a, b := NewOf[T](m, k), NewOf[T](k, n)
		awkward(rng, a, special, false)
		awkward(rng, b, special, true)

		got, err := MulInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulInto", got.data, naiveMulInto(nil, a, b).data)

		// aᵀ*b reads a down its columns: a is k x m here.
		at := TInto(nil, a)
		got, err = MulTransposeAInto(nil, at, b)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulTransposeAInto", got.data, naiveMulInto(nil, a, b).data)

		acc := NewOf[T](m, n)
		awkward(rng, acc, true, false)
		want := acc.Clone()
		oracleMulTAAccum(want, at, b)
		if err := MulTransposeAAccum(acc, at, b); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulTransposeAAccum", acc.data, want.data)

		bt := TInto(nil, b)
		got, err = MulTransposeBInto(got, a, bt)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulTransposeBInto", got.data, oracleMulTB(a, bt).data)

		if n > 0 {
			v := b.ColCopy(0)
			gotVec, err := MulVecInto(nil, a, v)
			if err != nil {
				t.Fatal(err)
			}
			vm, _ := FromSlice(1, k, v)
			sameBits(t, "MulVecInto", gotVec, oracleMulTB(a, vm).data)
		}
	}
}

func TestFormsMatchOraclesBitwise(t *testing.T) {
	onBothPaths(t, func(t *testing.T) {
		t.Run("f64", testFormsMatchOracles[float64])
		t.Run("f32", testFormsMatchOracles[float32])
	})
}

// fuzzRowKernel decodes one mulRows call from data — shape, both a strides,
// the skip switch, then element bits (NaNs folded onto hardNaN) — and holds
// the assembly kernel to the portable one on it, bit for bit, guard elements
// either side of c included.
func fuzzRowKernel[T Float](t *testing.T, data []byte, fromBits func(uint32) T) {
	if len(data) < 6 {
		return
	}
	m, k, n := int(data[0]%9), int(data[1]%40)+1, int(data[2])%110
	if m == 0 || n == 0 {
		return
	}
	aks := int(data[3]%3) + 1
	ars := int(data[4] % 8)
	if data[4]&0x80 != 0 {
		ars += (k - 1) * aks // rows that do not overlap, as in a*b
	}
	skipZero := data[5]&1 != 0
	// The rest is element bits, four bytes each, read round and round.
	bits, pos := data[6:], 0
	next := func() T {
		if len(bits) < 4 {
			return 1.5
		}
		if pos+4 > len(bits) {
			pos = 0
		}
		v := fromBits(binary.LittleEndian.Uint32(bits[pos:]))
		pos += 4
		if v != v {
			return hardNaN[T]()
		}
		return v
	}
	const guard = 9
	a := make([]T, (m-1)*ars+(k-1)*aks+1)
	b := make([]T, k*n)
	c := make([]T, guard+m*n+guard)
	for _, s := range [][]T{a, b, c} {
		for i := range s {
			s[i] = next()
		}
	}
	want := append([]T(nil), c...)
	mulRowsGeneric(want[guard:guard+m*n], a, ars, aks, b, m, k, n, skipZero)
	mulRows(c[guard:guard+m*n], a, ars, aks, b, m, k, n, skipZero)
	sameBits(t, "mulRows", c, want)
}

// f64FromBits spreads 32 fuzzed bits over a float64 so that the sign, the
// exponent's ends (zero, subnormal, Inf, NaN) and the low mantissa bits are
// all reachable.
func f64FromBits(u uint32) float64 {
	return math.Float64frombits(uint64(u&0xfff00000)<<32 | uint64(u&0xfffff))
}

// FuzzRowKernel holds the assembly row kernel to the portable one, and to
// its bounds. Plain `go test` replays the seed corpus in
// testdata/fuzz/FuzzRowKernel; the portable loop's own agreement with the
// naive oracles is TestFormsMatchOraclesBitwise's job.
func FuzzRowKernel(f *testing.F) {
	if !useAVX2 {
		f.Skip("no AVX2 on this CPU: there is one path")
	}
	f.Add([]byte{4, 11, 48, 0, 0x80, 1, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80}) // an LSTM gate product: 4x12x48, 1.0 / +0 / -0
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRowKernel(t, data, f64FromBits)
		fuzzRowKernel(t, data, math.Float32frombits)
	})
}

// TestMulFormsDoNotAllocate pins the steady state at the LSTM's shapes:
// recycled dst, pooled bᵀ scratch, no goroutine below the flop cutoff.
func TestMulFormsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, wh := randMat(rng, 32, 12), randMat(rng, 12, 48)
	dG := randMat(rng, 32, 48)
	var hw, dh *Matrix
	dWh := New(12, 48)
	allocs := testing.AllocsPerRun(200, func() {
		hw, _ = MulInto(hw, x, wh)                 // 32x12x48
		dh, _ = MulTransposeBInto(dh, dG, wh)      // 32x48x12
		if MulTransposeAAccum(dWh, x, dG) != nil { // 12x32x48
			t.Fatal("shape")
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per forward+backward matmul set, want 0", allocs)
	}
}
