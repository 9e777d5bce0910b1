package matrix

// LaggedUniforms is the block step of math/rand's generator, the additive
// lagged-Fibonacci source behind rand.NewSource, with the conversion
// rand.Rand.Float64 makes of each output: for every i < len(dst),
//
//	feed[i] += tap[i]  (mod 2⁶⁴)
//	dst[i] = float64(int64(feed[i] & (2⁶³−1))) / 2⁶³
//
// feed holds the outputs one full lag back and receives the new ones; tap
// holds the outputs at the short lag. It reports whether some dst[i] is 1,
// the value rand.Rand.Float64 discards and redraws. feed and tap must be at
// least as long as dst and must not overlap.
//
// It is the package's fifth primitive, under Sigmoid's rule: on amd64 with
// AVX2 an assembly kernel does four lanes per instruction
// (uniforms_amd64.s), elsewhere the portable twin below does one, and
// every path gives the twin's bits. The conversion is exact on every path:
// the kernel splits each 63-bit value into its high 31 and low 32 bits,
// both exact as float64, so their one rounded sum is float64 of the whole
// under round-to-nearest, and the scaling by 2⁻⁶³ is exact.
func LaggedUniforms(dst []float64, feed, tap []uint64) bool {
	n := len(dst)
	checkLen("LaggedUniforms", n, len(feed), len(tap))
	if n == 0 {
		return false
	}
	return laggedUniforms(dst, feed[:n], tap[:n])
}

func laggedUniformsGeneric(dst []float64, feed, tap []uint64) bool {
	one := false
	for i := range dst {
		y := feed[i] + tap[i]
		feed[i] = y
		f := float64(int64(y&(1<<63-1))) / (1 << 63)
		dst[i] = f
		if f == 1 {
			one = true
		}
	}
	return one
}
