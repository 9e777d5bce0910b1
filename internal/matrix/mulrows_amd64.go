package matrix

// useAVX2 selects the assembly kernels — the row kernel and the activations;
// it is decided once, here, and only tests change it afterwards (to run both
// paths on one machine).
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func mulRowsF64(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero bool)

//go:noescape
func mulRowsF32(c, a *float32, ars, aks int, b *float32, m, k, n int, skipZero bool)

// mulRows is mulRowsGeneric on the fastest path this CPU has. m, k and n are
// positive. The assembly trusts its arguments, so the last element the
// formula names in each slice is touched here first: a caller's shape bug
// panics instead of reading or writing past a slice.
func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero bool) {
	if !useAVX2 {
		mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero)
		return
	}
	_, _, _ = c[m*n-1], a[(m-1)*ars+(k-1)*aks], b[k*n-1]
	switch c := any(c).(type) {
	case []float64:
		mulRowsF64(&c[0], &any(a).([]float64)[0], ars, aks, &any(b).([]float64)[0], m, k, n, skipZero)
	case []float32:
		mulRowsF32(&c[0], &any(a).([]float32)[0], ars, aks, &any(b).([]float32)[0], m, k, n, skipZero)
	}
}

//go:noescape
func sigmoidAVX2(dst, src *float64, n int)

//go:noescape
func tanhAVX2(dst, src *float64, n int)

// sigmoid and tanh are the twins on the fastest path this CPU has; len(dst)
// == len(src).
func sigmoid(dst, src []float64) {
	if !useAVX2 || len(src) == 0 {
		sigmoidGeneric(dst, src)
		return
	}
	sigmoidAVX2(&dst[0], &src[0], len(src))
}

func tanh(dst, src []float64) {
	if !useAVX2 || len(src) == 0 {
		tanhGeneric(dst, src)
		return
	}
	tanhAVX2(&dst[0], &src[0], len(src))
}
