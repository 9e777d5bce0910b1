package preprocess

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// quantileSorted is the q-quantile of an ascending-sorted slice by linear
// interpolation: the oracle quantiles must reproduce from unsorted input.
func quantileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// quantilePalette holds the values quantile inputs are drawn from besides
// small integers: NaN, both infinities, both zeros and the extremes of the
// finite range.
var quantilePalette = []float64{
	math.NaN(),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	1, -1, 0.5, 2, 3,
}

// decodeQuantileInput turns fuzz bytes into values, two bytes each: a tag
// choosing the palette, a small integer, an eighth of one or one near the
// top of the range, and the byte that picks it.
func decodeQuantileInput(raw []byte) []float64 {
	vals := make([]float64, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		v := raw[i+1]
		switch raw[i] & 3 {
		case 0:
			vals = append(vals, quantilePalette[int(v)%len(quantilePalette)])
		case 1:
			vals = append(vals, float64(int8(v)))
		case 2:
			vals = append(vals, float64(int8(v))/8)
		default:
			vals = append(vals, float64(int8(v))*1e306)
		}
	}
	return vals
}

// checkQuantiles requires quantiles to give, bit for bit, what
// sort.Float64s then quantileSorted gives for vals: each q alone, and all
// of them, ascending, in one call. A NaN result must be a NaN, of any
// payload: when two NaNs meet (a NaN input, Inf*0), which one an addition
// returns is its operand order, which neither IEEE 754 nor Go fixes.
func checkQuantiles(t *testing.T, vals []float64, qs []float64) {
	t.Helper()
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	all := make([]float64, len(qs))
	quantiles(append([]float64(nil), vals...), qs, all)
	for i, q := range qs {
		want := quantileSorted(sorted, q)
		var one [1]float64
		quantiles(append([]float64(nil), vals...), []float64{q}, one[:])
		for _, got := range []float64{one[0], all[i]} {
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%d values %v: quantile %v = %v (%#x), sort-then-interpolate %v (%#x)",
					len(vals), vals, q, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// FuzzQuantiles: selection gives the sorted slice's interpolated
// quantiles bit for bit (a NaN as a NaN), over NaN, ±Inf, ±0, duplicates
// and every length from one up, at the quartiles, the ends and one fuzzed
// probability.
func FuzzQuantiles(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte, qb uint8) {
		if len(raw) > 1<<8 {
			return
		}
		vals := decodeQuantileInput(raw)
		qs := []float64{0, 0.25, 0.5, 0.75, 1, float64(qb) / 255}
		sort.Float64s(qs)
		checkQuantiles(t, vals, qs)
	})
}

// TestQuantilesMatchSortedLargeInputs runs the property on inputs longer
// than a fuzz run reaches quickly: a few thousand values with heavy ties,
// with and without NaNs and mixed-sign zeros, so every branch of the
// selection (partition budget, min scan, sort fallback) is taken.
func TestQuantilesMatchSortedLargeInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	qs := []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1}
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(3000)
		raw := make([]byte, 2*n)
		rng.Read(raw)
		switch trial % 4 {
		case 0: // no palette values: ties, no NaN, no zero of either sign mixed
			for i := 0; i < len(raw); i += 2 {
				raw[i] |= 1
			}
		case 1: // sorted ascending: the worst case for a first-element pivot
			vals := decodeQuantileInput(raw)
			sort.Float64s(vals)
			checkQuantiles(t, vals, qs)
			continue
		}
		checkQuantiles(t, decodeQuantileInput(raw), qs)
	}
}
