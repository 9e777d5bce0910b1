package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// laggedUniformsRef is LaggedUniforms's contract read literally, one
// element at a time: what rand.Rand.Float64 makes of each new output.
func laggedUniformsRef(dst []float64, feed, tap []uint64) bool {
	one := false
	for i := range dst {
		feed[i] += tap[i]
		dst[i] = float64(int64(feed[i]&math.MaxInt64)) / (1 << 63)
		one = one || dst[i] == 1
	}
	return one
}

// uniformEdges are sums the conversion must round as float64(int64) does:
// the largest values that read 1 (2⁶³−512 is the tie that rounds to even,
// up), the largest that does not, a tie and a near-tie below 2⁵⁴, the
// sign bit alone and with low bits, zero, and the smallest nonzero value.
var uniformEdges = []uint64{
	1<<63 - 1, 1<<64 - 1, 1<<63 - 512, 1<<63 - 513,
	1<<54 + 2, 1<<54 + 6, 1<<54 + 3,
	1 << 63, 1<<63 + 1<<32 - 1, 0, 1,
}

// TestLaggedUniformsPathsAgree holds every path to the contract, bit for
// bit, at every length up to 40 and at the generator's block lengths: the
// stored sums, the uniforms, and whether one read 1. Each edge sum is
// planted at every lane of the body and the tail in turn, and guard
// elements either side of every output must come through untouched.
func TestLaggedUniformsPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lengths := []int{61, 272, 273}
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	onEveryPath(t, func(t *testing.T) {
		for _, n := range lengths {
			feed, tap := make([]uint64, n+2), make([]uint64, n+2)
			for i := range feed {
				feed[i], tap[i] = rng.Uint64(), rng.Uint64()
			}
			check := func(feed, tap []uint64) {
				t.Helper()
				wantFeed, gotFeed := append([]uint64(nil), feed...), append([]uint64(nil), feed...)
				want, got := make([]float64, n+2), make([]float64, n+2)
				want[0], want[n+1], got[0], got[n+1] = -7, -7, -7, -7
				wantOne := laggedUniformsRef(want[1:n+1], wantFeed[1:n+1], tap[1:n+1])
				gotOne := LaggedUniforms(got[1:n+1], gotFeed[1:n+1], tap[1:n+1])
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) || gotFeed[i] != wantFeed[i] {
						t.Fatalf("n=%d element %d: uniform %v (%#x), feed %#x; want %v (%#x), %#x",
							n, i, got[i], math.Float64bits(got[i]), gotFeed[i], want[i], math.Float64bits(want[i]), wantFeed[i])
					}
				}
				if gotOne != wantOne {
					t.Fatalf("n=%d: reported a 1: %v, want %v", n, gotOne, wantOne)
				}
			}
			check(feed, tap)
			for _, e := range uniformEdges {
				for lane := 1; lane <= n; lane++ {
					old := feed[lane]
					feed[lane] = e - tap[lane]
					check(feed, tap)
					feed[lane] = old
				}
			}
		}
	})
}

// TestLaggedUniformsPanicsOnShortSlices: a feed or tap shorter than dst is
// a caller's bug, refused before any assembly runs.
func TestLaggedUniformsPanicsOnShortSlices(t *testing.T) {
	for _, c := range []struct{ feed, tap int }{{3, 4}, {4, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("feed %d, tap %d for 4 uniforms: no panic", c.feed, c.tap)
				}
			}()
			LaggedUniforms(make([]float64, 4), make([]uint64, c.feed), make([]uint64, c.tap))
		}()
	}
}
