package matrix

//go:noescape
func laggedUniformsAVX2(dst *float64, feed, tap *uint64, n int) bool

// uniformTab holds the uniform kernel's constants, one 32-byte row each:
// 2²¹ and 2⁻¹¹, whose mantissas' low bits weigh 2⁻³¹ and 2⁻⁶³, so that a
// value's high 31 and low 32 bits put there read as their share of the
// value·2⁻⁶³ once the constant is taken off (exactly); and 1.
var uniformTab = [...][4]uint64{
	splatF(0x1p21),
	splatF(0x1p-11),
	splatF(1),
}

// laggedUniforms is the twin on the fastest path this CPU has (the avx512
// level runs the AVX2 form); the slices are equally long and not empty.
func laggedUniforms(dst []float64, feed, tap []uint64) bool {
	if kernelLevel == portable {
		return laggedUniformsGeneric(dst, feed, tap)
	}
	return laggedUniformsAVX2(&dst[0], &feed[0], &tap[0], len(dst))
}
