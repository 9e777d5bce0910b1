package matrix

import "math/rand"

const (
	randLen = 607 // the generator's long lag, and its state's length
	randTap = 273 // its short lag

	seedMod  = 1<<31 - 1 // the seeding LCG's modulus, a Mersenne prime
	seedMul  = 48271     // its multiplier
	seedZero = 89482311  // the seed math/rand takes in place of 0 (mod seedMod)
)

// Rand is math/rand's generator — the additive lagged-Fibonacci source
// behind rand.NewSource — replayed so that a dropout mask can be drawn a
// block at a time and a seed costs no division. Its outputs are those of
// rand.NewSource(seed): y[n] = y[n−607] + y[n−273] (mod 2⁶⁴) from the
// state that source's Seed writes. Float64s gives rand.Rand.Float64 of that
// sequence, a 1 redrawn as there, so every weight, mask, batch order,
// bootstrap draw and feature shuffle drawn from a Rand has the bits
// math/rand gives for the same seed. Rand implements rand.Source64, so
// rand.New(r).Shuffle is math/rand's Shuffle and rand.New(r).Intn its Intn.
//
// The sequence is math/rand's because the scores are: every pinned score
// (the Fig 11 and coop-grid goldens) and every DARR record a peer already
// published was computed from it, so another generator would move them all.
type Rand struct {
	vec [randLen]uint64 // the last randLen outputs, y[n] at vec[n % randLen]
	pos int             // n % randLen of the next output
}

// NewRand returns a Rand seeded with seed.
func NewRand(seed int64) *Rand {
	r := new(Rand)
	r.Seed(seed)
	return r
}

// Seed puts r where rand.NewSource(seed) starts, and allocates nothing.
//
// That source's Seed runs the LCG x ← 48271·x mod (2³¹−1) from the seed,
// packs three steps into each of its 607 state words and XORs in a fixed
// table (rngCooked). Seed computes the same words, but reduces mod 2³¹−1
// with a mask, a shift and one conditional subtract where math/rand
// divides, and takes the table from cooked.
func (r *Rand) Seed(seed int64) {
	lcgWords(&r.vec, seed)
	for i, c := range &cooked {
		r.vec[i] ^= c
	}
	r.pos = 0
}

// lcgWords sets vec to the LCG words math/rand's Seed makes from seed
// before it XORs in its table, each where Rand keeps that state value. The
// source's first output adds its words 333 and 606, its next 332 and 605;
// Rand's adds its words 0 and 334, its next 1 and 335. So the source's
// word i is Rand's (333 − i) mod 607.
func lcgWords(vec *[randLen]uint64, seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	x := uint64(seed)
	for range 20 {
		x = lcgStep(x)
	}
	k := randLen - randTap - 1
	for range randLen {
		x = lcgStep(x)
		u := canonical(x) << 40
		x = lcgStep(x)
		u ^= canonical(x) << 20
		x = lcgStep(x)
		vec[k] = u ^ canonical(x)
		if k--; k < 0 {
			k = randLen - 1
		}
	}
}

// lcgStep is 48271·x mod (2³¹−1), give or take one 2³¹−1, for x below 2³²:
// the product is below 2⁴⁸, and as 2³¹ ≡ 1 its low 31 bits plus the rest
// are congruent to it and below 2³¹+2¹⁷. The chain of steps never waits
// on the subtract that canonical makes.
func lcgStep(x uint64) uint64 {
	p := seedMul * x
	return p&seedMod + p>>31
}

// canonical reduces an lcgStep result, below 2·(2³¹−1), to [0, 2³¹−1).
func canonical(x uint64) uint64 {
	if x >= seedMod {
		x -= seedMod
	}
	return x
}

// cooked is math/rand's rngCooked table, which it does not export, in
// Rand's layout.
var cooked = cookedTable()

// cookedTable recovers the table from one math/rand source's outputs: the
// first randLen of them, with the recurrence run back, are the state its
// Seed wrote, and XORing out that seed's LCG words leaves the table.
func cookedTable() [randLen]uint64 {
	const seed = 1
	var state, words [randLen]uint64
	src := rand.NewSource(seed).(rand.Source64)
	for i := range state {
		state[i] = src.Uint64()
	}
	// y[n−607] = y[n] − y[n−273], n descending: y[n−273] is an output
	// still in place for n >= randTap, and a history value already run
	// back below it.
	for n := randLen - 1; n >= 0; n-- {
		q := n - randTap
		if q < 0 {
			q += randLen
		}
		state[n] -= state[q]
	}
	lcgWords(&words, seed)
	for i := range state {
		state[i] ^= words[i]
	}
	return state
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
// LaggedUniforms. A block never wraps the state or spans more than randTap
// outputs, so its short-lag terms are all outputs of earlier blocks. A
// block that read a 1 drops it, as Float64 redraws it: the values after it
// move down, and the next block fills the rest.
func (r *Rand) Float64s(dst []float64) {
	for len(dst) > 0 {
		p := r.pos
		q := p - randTap
		if q < 0 {
			q += randLen
		}
		n := min(len(dst), randLen-max(p, q), randTap)
		kept := n
		if LaggedUniforms(dst[:n], r.vec[p:p+n], r.vec[q:q+n]) {
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
