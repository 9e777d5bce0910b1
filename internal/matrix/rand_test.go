package matrix_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"coda/internal/matrix"
)

// randSeeds are the seeds the generator is held to math/rand on: zero (its
// source's stand-in seed), ±1, the int32 bound its source reduces by (which
// maps to zero too), its negation, the int64 extremes, and a few others.
var randSeeds = []int64{0, 1, -1, 7, -42, 1<<31 - 1, -(1<<31 - 1), math.MinInt64, math.MaxInt64, 123456789, 1 << 40}

// bulkLengths are the Float64s calls the comparison makes: lane and block
// edges of the kernel, a block and a state's length, and the deep LSTM's
// dropout mask (32 x 96).
var bulkLengths = []int{1, 3, 4, 5, 7, 8, 9, 16, 61, 272, 273, 274, 607, 1000, 3072}

// drawAgainstMathRand makes the calls ops names on r, just seeded with
// seed, and on math/rand's generator for that seed, and reports the first
// value they disagree on. Each op picks a call: one Float64 through
// rand.New(r), a Float64s block of a length from bulkLengths, one Int63,
// one Uint64, or a Shuffle through rand.New(r). It returns how many values
// it compared.
func drawAgainstMathRand(t *testing.T, r *matrix.Rand, seed int64, ops []byte) int {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	viaRand := rand.New(r)
	drawn := 0
	var got []float64
	for i, op := range ops {
		switch op % 5 {
		case 0:
			if g, w := viaRand.Float64(), ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d op %d: Float64 %v, math/rand %v", seed, i, g, w)
			}
			drawn++
		case 1:
			n := bulkLengths[int(op/5)%len(bulkLengths)]
			got = slices.Grow(got[:0], n)[:n]
			r.Float64s(got)
			for j, g := range got {
				if w := ref.Float64(); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("seed %d op %d: Float64s(%d)[%d] = %v, math/rand %v", seed, i, n, j, g, w)
				}
			}
			drawn += n
		case 2:
			if g, w := r.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d op %d: Int63 %d, math/rand %d", seed, i, g, w)
			}
			drawn++
		case 3:
			if g, w := r.Uint64(), ref.Uint64(); g != w {
				t.Fatalf("seed %d op %d: Uint64 %d, math/rand %d", seed, i, g, w)
			}
			drawn++
		case 4:
			n := int(op/5) + 2
			g, w := make([]int, n), make([]int, n)
			for j := range g {
				g[j], w[j] = j, j
			}
			viaRand.Shuffle(n, func(a, b int) { g[a], g[b] = g[b], g[a] })
			ref.Shuffle(n, func(a, b int) { w[a], w[b] = w[b], w[a] })
			if !slices.Equal(g, w) {
				t.Fatalf("seed %d op %d: Shuffle(%d) = %v, math/rand %v", seed, i, n, g, w)
			}
			drawn += n - 1
		}
	}
	return drawn
}

// TestRandMatchesMathRand holds matrix.Rand, on every kernel path, to
// math/rand's generator for the same seed: every Float64, single or in a
// Float64s block, Int63, Uint64 and Shuffle, over at least 10⁶ values
// across eleven seeds, one Rand re-seeded with each in turn. (Rand's
// redraw of a 1 is held to Float64's by TestRandRedrawsOne, from a crafted
// state; the kernel's report of one is held, on every path, by
// TestLaggedUniformsPathsAgree.)
func TestRandMatchesMathRand(t *testing.T) {
	ops := make([]byte, 3000)
	pick := rand.New(rand.NewSource(5))
	for i := range ops {
		ops[i] = byte(pick.Intn(256))
	}
	for _, path := range matrix.KernelPaths(t) {
		t.Run(path, func(t *testing.T) {
			matrix.UseKernelPath(t, path)
			drawn := 0
			r := matrix.NewRand(3)
			for _, seed := range randSeeds {
				r.Seed(seed)
				drawn += drawAgainstMathRand(t, r, seed, ops)
			}
			if drawn < 1_000_000 {
				t.Fatalf("compared %d values, want at least 10⁶", drawn)
			}
		})
	}
}

// FuzzRandMatchesMathRand mutates the seed and the call sequence of
// TestRandMatchesMathRand on this CPU's kernel path.
func FuzzRandMatchesMathRand(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 6, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		drawAgainstMathRand(t, matrix.NewRand(seed), seed, ops)
	})
}

// BenchmarkDropoutDraw times one deep-LSTM dropout mask (32 x 96 uniforms)
// per iteration, in ns per uniform: math/rand's Rand.Float64 called once
// per element, then matrix.Rand.Float64s on each kernel path.
func BenchmarkDropoutDraw(b *testing.B) {
	mask := make([]float64, 32*96)
	perUniform := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(mask)), "ns/uniform")
	}
	b.Run("math-rand", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < b.N; i++ {
			for j := range mask {
				mask[j] = rng.Float64()
			}
		}
		perUniform(b)
	})
	for _, path := range matrix.KernelPaths(b) {
		b.Run(path, func(b *testing.B) {
			matrix.UseKernelPath(b, path)
			rng := matrix.NewRand(1)
			for i := 0; i < b.N; i++ {
				rng.Float64s(mask)
			}
			perUniform(b)
		})
	}
}

// BenchmarkRandSeed times one seeding, as a forest does per tree: math/rand's
// source, whose LCG divides at every step, against Rand's.
func BenchmarkRandSeed(b *testing.B) {
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1)
		for i := 0; i < b.N; i++ {
			src.Seed(int64(i))
		}
	})
	b.Run("matrix", func(b *testing.B) {
		r := matrix.NewRand(1)
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
		}
	})
}
