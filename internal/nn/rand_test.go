package nn

import (
	"math"
	"slices"
	"testing"
)

// TestRandRedrawsOne crafts outputs that read 1 — at the start and end of
// a block, inside one, and two in a row — and holds Float64s to Float64 on
// them: each is dropped and the values after it move up, as Float64 draws
// again. Both generators must end in the same state, so each took one
// output per value plus one per 1. (That the kernel reports a 1 on every
// path is TestLaggedUniformsPathsAgree's, in matrix.)
func TestRandRedrawsOne(t *testing.T) {
	// Outputs 0-606 take their long-lag terms from the seeded state; each
	// planted one gets the term that makes it 2⁶³−1, whose Float64 is 1,
	// given the short-lag term a run up to it (shadow) has. The state at
	// 334 and above is also output n−334's short-lag term (606 is 272's), so
	// the planting runs twice: the second run sees the first's terms.
	planted := []int{0, 1, 7, 8, 9, 272, 273, 400, 545, 546, 606}
	bulk := NewRand(5)
	for range 2 {
		shadow := *bulk
		for n := 0; n < randLen; n++ {
			if slices.Contains(planted, n) {
				q := n - randTap
				if q < 0 {
					q += randLen
				}
				shadow.vec[n] = 1<<63 - 1 - shadow.vec[q]
				bulk.vec[n] = shadow.vec[n]
			}
			shadow.Uint64()
		}
	}
	single, counted := *bulk, *bulk
	got := make([]float64, 2*randLen)
	bulk.Float64s(got)
	for i, g := range got {
		if w := single.nextFloat64(); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("Float64s[%d] = %v, Float64 %v", i, g, w)
		}
		if g == 1 {
			t.Fatalf("Float64s[%d] is 1", i)
		}
	}
	if bulk.pos != single.pos || bulk.vec != single.vec {
		t.Fatalf("after %d values the generators differ: Float64s at %d, Float64 at %d", len(got), bulk.pos, single.pos)
	}
	// The outputs that read 1 among those taken: the planted ones, and the
	// sums of two planted ones a lag apart (2⁶⁴−2 reads 1 too).
	ones := 0
	for kept := 0; kept < len(got); {
		if float64(counted.Int63())/(1<<63) == 1 {
			ones++
		} else {
			kept++
		}
	}
	if counted.pos != bulk.pos || ones < len(planted) {
		t.Fatalf("%d outputs read 1, want at least the %d planted; taken up to %d, Float64s took up to %d", ones, len(planted), counted.pos, bulk.pos)
	}
}

// nextFloat64 is rand.Rand.Float64 on r: Int63/2⁶³, drawn again while it
// is 1.
func (r *Rand) nextFloat64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}
