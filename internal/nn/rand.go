package nn

import (
	"math/rand"

	"coda/internal/matrix"
)

const (
	randLen = 607 // the generator's long lag, and its state's length
	randTap = 273 // its short lag
)

// Rand is math/rand's generator — the additive lagged-Fibonacci source
// behind rand.NewSource — replayed so that a dropout mask can be drawn a
// block at a time. Its outputs after seeding are the first randLen outputs
// of rand.NewSource(seed), then y[n] = y[n−607] + y[n−273] (mod 2⁶⁴): the
// recurrence that source runs. Float64s gives rand.Rand.Float64 of that
// sequence, a 1 redrawn as there, so every weight, mask and batch order
// drawn from a Rand has the bits math/rand gives for the same seed. Rand
// implements rand.Source64, so rand.New(r).Shuffle is math/rand's Shuffle.
//
// The sequence is math/rand's because the scores are: every pinned score
// (the Fig 11 and coop-grid goldens) and every DARR record a peer already
// published was computed from it, so another generator would move them all.
type Rand struct {
	vec [randLen]uint64 // the last randLen outputs, y[n] at vec[n % randLen]
	pos int             // n % randLen of the next output
	src rand.Source64   // math/rand's source, which Seed seeds again
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	r := &Rand{src: rand.NewSource(seed).(rand.Source64)}
	r.start()
	return r
}

// Seed puts r where rand.NewSource(seed) starts, and allocates nothing.
func (r *Rand) Seed(seed int64) {
	r.src.Seed(seed)
	r.start()
}

// start takes the source's first randLen outputs and runs the recurrence
// back from them, so that the state holds the randLen outputs before the
// first and the next randLen outputs are those.
func (r *Rand) start() {
	r.pos = 0
	for i := range r.vec {
		r.vec[i] = r.src.Uint64()
	}
	// y[n−607] = y[n] − y[n−273], n descending: y[n−273] is an output
	// still in place for n >= randTap, and a history value already run
	// back below it.
	for n := randLen - 1; n >= 0; n-- {
		q := n - randTap
		if q < 0 {
			q += randLen
		}
		r.vec[n] -= r.vec[q]
	}
}

// Uint64 returns the next output.
func (r *Rand) Uint64() uint64 {
	p := r.pos
	q := p - randTap
	if q < 0 {
		q += randLen
	}
	y := r.vec[p] + r.vec[q]
	r.vec[p] = y
	if p++; p == randLen {
		p = 0
	}
	r.pos = p
	return y
}

// Int63 returns the next output's low 63 bits, as math/rand's source does.
func (r *Rand) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Float64s sets dst to the next len(dst) values rand.Rand.Float64 would
// return (Int63/2⁶³, drawn again while it is 1), a block at a time through
// matrix.LaggedUniforms. A block never wraps the state or spans more than
// randTap outputs, so its short-lag terms are all outputs of earlier
// blocks. A block that read a 1 drops it, as Float64 redraws it: the values
// after it move down, and the next block fills the rest.
func (r *Rand) Float64s(dst []float64) {
	for len(dst) > 0 {
		p := r.pos
		q := p - randTap
		if q < 0 {
			q += randLen
		}
		n := min(len(dst), randLen-max(p, q), randTap)
		kept := n
		if matrix.LaggedUniforms(dst[:n], r.vec[p:p+n], r.vec[q:q+n]) {
			kept = 0
			for _, f := range dst[:n] {
				if f != 1 {
					dst[kept] = f
					kept++
				}
			}
		}
		if r.pos = p + n; r.pos == randLen {
			r.pos = 0
		}
		dst = dst[kept:]
	}
}
