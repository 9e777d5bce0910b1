package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
)

// onEveryPath runs fn as a subtest on each kernel path this CPU runs, with
// the kernels on that path (WithKernelPath): "portable", then "asm/<path>"
// for each assembly one. Each path the CPU lacks is logged, so a run that
// skipped one says so.
func onEveryPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	paths := KernelPaths()
	for _, name := range levelNames[len(paths):] {
		t.Logf("%s path not run: this CPU lacks it", name)
	}
	run := func(t *testing.T, path string) {
		t.Helper()
		if err := WithKernelPath(path, func() { t.Run(path, fn) }); err != nil {
			t.Fatal(err)
		}
	}
	run(t, paths[0])
	if len(paths) > 1 {
		t.Run("asm", func(t *testing.T) {
			for _, path := range paths[1:] {
				run(t, path)
			}
		})
	}
}

// TestWithKernelPath holds the hook every path test switches through: fn
// runs on the named path; the path found before is back after fn returns,
// and after fn leaves a subtest by runtime.Goexit; and a name that is no
// path, or a path this CPU lacks, is refused without running fn.
func TestWithKernelPath(t *testing.T) {
	was := kernelLevel
	if paths := KernelPaths(); paths[0] != "portable" || len(paths) != int(cpuLevel())+1 {
		t.Fatalf("KernelPaths() = %v on a CPU whose widest path is %v", paths, cpuLevel())
	}
	for l, name := range append(levelNames[:], "sse2") {
		ran := false
		err := WithKernelPath(name, func() {
			ran = true
			if kernelLevel != level(l) {
				t.Errorf("inside WithKernelPath(%q): kernels on %v", name, kernelLevel)
			}
		})
		if runs := l < len(levelNames) && level(l) <= cpuLevel(); runs != (err == nil) || ran != (err == nil) {
			t.Errorf("WithKernelPath(%q) on a %v CPU: fn ran %v, error %v", name, cpuLevel(), ran, err)
		}
		if kernelLevel != was {
			t.Fatalf("after WithKernelPath(%q): kernels on %v, want %v", name, kernelLevel, was)
		}
	}
	// t.SkipNow leaves fn by runtime.Goexit, as t.Fatal does, without
	// failing the run.
	t.Run("goexit", func(t *testing.T) {
		if err := WithKernelPath("portable", t.SkipNow); err != nil {
			t.Fatal(err)
		}
		t.Fatal("WithKernelPath returned after fn's runtime.Goexit")
	})
	if kernelLevel != was {
		t.Fatalf("after fn's runtime.Goexit: kernels on %v, want %v", kernelLevel, was)
	}
}

// TestCPULevelMatchesCPUInfo holds the CPUID and XCR0 decision to what
// Linux reports: avx512 when the CPU flags list avx512f, else avx2 when
// they list avx2, else portable (Linux drops a flag whose register state
// it does not save, as cpuLevel checks XCR0).
func TestCPULevelMatchesCPUInfo(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to check against: %v", err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "flags" {
			flags = strings.Fields(v)
			break
		}
	}
	want := portable
	switch {
	case slices.Contains(flags, "avx512f"):
		want = avx512
	case slices.Contains(flags, "avx2"):
		want = avx2
	}
	if got := cpuLevel(); got != want {
		t.Fatalf("cpuLevel() = %v, the CPU flags say %v", got, want)
	}
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

		// The overwriting forms get a dst full of leftovers (NaN, ±Inf, -0
		// among them): none of it may reach the result.
		leftovers := func() *Mat[T] {
			d := NewOf[T](m, n)
			awkward(rng, d, true, false)
			return d
		}
		got, err := MulInto(leftovers(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulInto", got.data, naiveMulInto(nil, a, b).data)

		// aᵀ*b reads a down its columns: a is k x m here.
		at := TInto(nil, a)
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
		got, err = MulNoSkipInto(leftovers(), a, b)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "MulNoSkipInto", got.data, oracleMulTB(a, bt).data)

		// The bias forms: column sums of b into a row, and a row added to
		// every row of a, against their plain loops.
		sums := NewOf[T](1, n)
		awkward(rng, sums, special, false)
		wantSums := sums.Clone()
		for kk := 0; kk < k; kk++ {
			for j, v := range b.Row(kk) {
				wantSums.data[j] += v
			}
		}
		if err := AccumColSums(sums.data, b); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "AccumColSums", sums.data, wantSums.data)
		row := NewOf[T](1, k)
		awkward(rng, row, special, false)
		shifted, wantShifted := a.Clone(), a.Clone()
		for i := 0; i < m; i++ {
			for j, v := range row.data {
				wantShifted.data[i*k+j] += v
			}
		}
		if err := AddRowVec(shifted, row.data); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "AddRowVec", shifted.data, wantShifted.data)
	}
}

func TestFormsMatchOraclesBitwise(t *testing.T) {
	onEveryPath(t, func(t *testing.T) {
		t.Run("f64", testFormsMatchOracles[float64])
		t.Run("f32", testFormsMatchOracles[float32])
	})
}

// fuzzRowKernel decodes one mulRows call from data — shape, both a strides,
// the skip and zero switches, then element bits (NaNs folded onto hardNaN) —
// and holds the assembly kernel on each of paths to the portable one on
// it, bit for bit, guard elements either side of c included.
func fuzzRowKernel[T Float](t *testing.T, paths []string, data []byte, fromBits func(uint32) T) {
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
	skipZero, zeroC := data[5]&1 != 0, data[5]&2 != 0
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
	mulRowsGeneric(want[guard:guard+m*n], a, ars, aks, b, m, k, n, skipZero, zeroC)
	for _, path := range paths {
		got := append([]T(nil), c...)
		if err := WithKernelPath(path, func() { mulRows(got[guard:guard+m*n], a, ars, aks, b, m, k, n, skipZero, zeroC) }); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "mulRows on "+path, got, want)
	}
}

// f64FromBits spreads 32 fuzzed bits over a float64 so that the sign, the
// exponent's ends (zero, subnormal, Inf, NaN) and the low mantissa bits are
// all reachable.
func f64FromBits(u uint32) float64 {
	return math.Float64frombits(uint64(u&0xfff00000)<<32 | uint64(u&0xfffff))
}

// FuzzRowKernel holds the assembly row kernel at every level this CPU runs
// to the portable one, and to its bounds. Plain `go test` replays the seed
// corpus in testdata/fuzz/FuzzRowKernel; the portable loop's own agreement
// with the naive oracles is TestFormsMatchOraclesBitwise's job.
func FuzzRowKernel(f *testing.F) {
	paths := KernelPaths()[1:]
	if len(paths) == 0 {
		f.Skip("no assembly kernel on this CPU: there is one path")
	}
	f.Add([]byte{4, 11, 48, 0, 0x80, 1, 0, 0, 0x80, 0x3f, 0, 0, 0, 0, 0, 0, 0, 0x80}) // an LSTM gate product: 4x12x48, 1.0 / +0 / -0
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzRowKernel(t, paths, data, f64FromBits)
		fuzzRowKernel(t, paths, data, math.Float32frombits)
	})
}

// zeroLayouts are the a strides the row kernel tells apart when it looks
// for +-0: row-major (MulInto) and transposed (MulTransposeA*), which it
// reads as one run of m*k elements, and rows with a gap between them and a
// stride pattern, which it does not read.
var zeroLayouts = []struct {
	name    string
	strides func(m, k int) (ars, aks int)
}{
	{"rowmajor", func(m, k int) (int, int) { return k, 1 }},
	{"gapped", func(m, k int) (int, int) { return k + 3, 1 }},
	{"transposed", func(m, k int) (int, int) { return 1, m }},
	{"strided", func(m, k int) (int, int) { return 2 * k, 2 }},
}

// zeroA fills the a elements the formula reads with values of which frac
// are +-0 at random places (frac 1: all of them; frac < 0: all but one),
// and the elements between them with NaN, so that a kernel that looks for
// +-0 outside the formula's elements decides on the wrong ones.
func zeroA[T Float](rng *rand.Rand, a []T, ars, aks, m, k int, frac float64) {
	for i := range a {
		a[i] = hardNaN[T]()
	}
	one := rng.Intn(m * k)
	for i := 0; i < m; i++ {
		for kk := 0; kk < k; kk++ {
			v := T(rng.NormFloat64())
			if frac < 0 && i*k+kk != one || rng.Float64() < frac {
				v = T(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			}
			a[i*ars+kk*aks] = v
		}
	}
}

// testRowKernelZeroPatterns holds mulRows on the current path to
// mulRowsGeneric where the two ways of handling a +-0 a element differ.
// With specials on, at every kk where a column of a holds a +-0, b's
// columns j%3 == 0 hold +Inf, -Inf or NaN (an added term would be NaN);
// with them off b is finite. Unless zeroC, c's columns j%3 == 1 start at
// -0 (an added +0 term would make them +0).
func testRowKernelZeroPatterns[T Float](t *testing.T) {
	shapes := slices.Clone(zeroShapes)
	for n := 1; n <= 17; n++ {
		for _, m := range []int{1, 7, 13} { // short of, between and past the 4- and 8-row passes
			shapes = append(shapes, [3]int{m, 1, n}, [3]int{m, 9, n})
		}
	}
	shapes = append(shapes, [3]int{13, 9, 53}, [3]int{7, 5, 101}) // several panels on every level
	specials := []T{T(math.Inf(1)), T(math.Inf(-1)), hardNaN[T]()}
	negZero := T(math.Copysign(0, -1))
	rng := rand.New(rand.NewSource(46))
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		for _, frac := range []float64{0, 0.1, 0.5, 1, -1} {
			for _, lay := range zeroLayouts {
				ars, aks := lay.strides(m, k)
				a := make([]T, (m-1)*ars+(k-1)*aks+1)
				zeroA(rng, a, ars, aks, m, k, frac)
				for _, special := range []bool{false, true} {
					b := make([]T, k*n)
					for kk := 0; kk < k; kk++ {
						hasZero := false
						for i := 0; i < m; i++ {
							hasZero = hasZero || a[i*ars+kk*aks] == 0
						}
						for j := range n {
							b[kk*n+j] = T(rng.NormFloat64())
							if special && hasZero && j%3 == 0 {
								b[kk*n+j] = specials[(kk+j)%3]
							}
						}
					}
					for _, skipZero := range []bool{false, true} {
						for _, zeroC := range []bool{false, true} {
							c := make([]T, m*n)
							for i := range c {
								switch {
								case zeroC:
									c[i] = specials[i%3] // leftovers: none may reach the result
								case i%n%3 == 1:
									c[i] = negZero
								default:
									c[i] = T(rng.NormFloat64())
								}
							}
							want := slices.Clone(c)
							mulRowsGeneric(want, a, ars, aks, b, m, k, n, skipZero, zeroC)
							mulRows(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
							name := fmt.Sprintf("%dx%dx%d %s zeros=%v specials=%v skipZero=%v zeroC=%v", m, k, n, lay.name, frac, special, skipZero, zeroC)
							sameBits(t, name, c, want)
						}
					}
				}
			}
		}
	}
}

// testRowKernelOneSpecial moves one value that tells a skipped term from
// an added one over every place it can be, so that a kernel that looks at
// a, b or c in chunks misses none of them: a single +-0 in a (all of b
// +Inf), a single Inf or NaN in b (that row of a all +0), and a single -0
// in c (that row of a all +0, b positive).
func testRowKernelOneSpecial[T Float](t *testing.T) {
	specials := []T{T(math.Inf(1)), T(math.Inf(-1)), hardNaN[T]()}
	negZero := T(math.Copysign(0, -1))
	for _, s := range [][3]int{{9, 5, 13}, {3, 11, 7}, {17, 3, 5}, {5, 4, 18}} {
		m, k, n := s[0], s[1], s[2]
		for _, lay := range zeroLayouts[:3] {
			ars, aks := lay.strides(m, k)
			fresh := func() (a, b, c []T) {
				a = make([]T, (m-1)*ars+(k-1)*aks+1)
				b, c = make([]T, k*n), make([]T, m*n)
				for i := 0; i < m; i++ {
					for kk := 0; kk < k; kk++ {
						a[i*ars+kk*aks] = T(1 + i + kk)
					}
				}
				for i := range b {
					b[i] = T(1 + i%5)
				}
				for i := range c {
					c[i] = T(i)
				}
				return a, b, c
			}
			check := func(what string, a, b, c []T, zeroC bool) {
				t.Helper()
				want := slices.Clone(c)
				mulRowsGeneric(want, a, ars, aks, b, m, k, n, true, zeroC)
				mulRows(c, a, ars, aks, b, m, k, n, true, zeroC)
				sameBits(t, fmt.Sprintf("%dx%dx%d %s %s", m, k, n, lay.name, what), c, want)
			}
			for i := 0; i < m; i++ {
				for kk := 0; kk < k; kk++ {
					a, b, c := fresh()
					a[i*ars+kk*aks] = negZero
					for j := range b {
						b[j] = specials[0]
					}
					check(fmt.Sprintf("-0 at a[%d][%d]", i, kk), a, b, c, true)
				}
			}
			for q := range k * n {
				a, b, c := fresh()
				for i := 0; i < m; i++ {
					a[i*ars+q/n*aks] = 0
				}
				b[q] = specials[q%3]
				check(fmt.Sprintf("%v at b[%d]", b[q], q), a, b, c, true)
			}
			for r := range m * n {
				a, b, c := fresh()
				for kk := 0; kk < k; kk++ {
					a[r/n*ars+kk*aks] = 0
				}
				c[r] = negZero
				check(fmt.Sprintf("-0 at c[%d]", r), a, b, c, false)
			}
		}
	}
}

// TestRowKernelZeroPatterns runs testRowKernelZeroPatterns and
// testRowKernelOneSpecial on every path: they reach both pass bodies of
// each assembly level (plain and masked), in every panel width and pass
// height, and every way the kernel looks at a, b and c.
func TestRowKernelZeroPatterns(t *testing.T) {
	onEveryPath(t, func(t *testing.T) {
		t.Run("f64", testRowKernelZeroPatterns[float64])
		t.Run("f32", testRowKernelZeroPatterns[float32])
		t.Run("f64/one-special", testRowKernelOneSpecial[float64])
		t.Run("f32/one-special", testRowKernelOneSpecial[float32])
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
