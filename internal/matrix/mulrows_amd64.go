package matrix

// useAVX2 selects the assembly kernels — the row kernel and the activations;
// it is decided once, here, and only tests change it afterwards (to run both
// paths on one machine).
var useAVX2 = hasAVX2()

func hasAVX2() bool

//go:noescape
func mulRowsF64(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)

//go:noescape
func mulRowsF32(c, a *float32, ars, aks int, b *float32, m, k, n int, skipZero, zeroC bool)

// mulRows is mulRowsGeneric on the fastest path this CPU has. m, k and n are
// positive. The assembly trusts its arguments, so the last element the
// formula names in each slice is touched here first: a caller's shape bug
// panics instead of reading or writing past a slice.
func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	if !useAVX2 {
		mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
		return
	}
	_, _, _ = c[m*n-1], a[(m-1)*ars+(k-1)*aks], b[k*n-1]
	switch c := any(c).(type) {
	case []float64:
		mulRowsF64(&c[0], &any(a).([]float64)[0], ars, aks, &any(b).([]float64)[0], m, k, n, skipZero, zeroC)
	case []float32:
		mulRowsF32(&c[0], &any(a).([]float32)[0], ars, aks, &any(b).([]float32)[0], m, k, n, skipZero, zeroC)
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

//go:noescape
func lstmGatherAVX2(pre, xw *float64, xs int, hw *float64, hs int, b *float64, rows, hidden int)

//go:noescape
func lstmCellAVX2(c, tc, cPrev, ig, fg, cg *float64, n int)

//go:noescape
func lstmHiddenAVX2(h, o, tc *float64, n int)

//go:noescape
func lstmGateGradsAVX2(dg, gates, tc, cPrev, dh, dc *float64, rows, hidden int)

// lstmGather, lstmCell, lstmHidden and lstmGateGrads are the LSTM twins on
// the fastest path this CPU has, the float64 ones in assembly; every slice
// is as long as the exported function's shape says, and the shape is not
// empty for lstmGather and lstmGateGrads.
func lstmGather[T Float](g []float64, xw []T, xs int, hw []T, hs int, b []T, rows, hidden int) {
	xw64, ok := any(xw).([]float64)
	if !useAVX2 || !ok {
		lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
		return
	}
	lstmGatherAVX2(&g[0], &xw64[0], xs, &any(hw).([]float64)[0], hs, &any(b).([]float64)[0], rows, hidden)
}

func lstmCell[T Float](c []T, tc []float64, cPrev []T, i, f, g []float64) {
	c64, ok := any(c).([]float64)
	if !useAVX2 || !ok || len(c) == 0 {
		lstmCellGeneric(c, tc, cPrev, i, f, g)
		return
	}
	lstmCellAVX2(&c64[0], &tc[0], &any(cPrev).([]float64)[0], &i[0], &f[0], &g[0], len(c))
}

func lstmHidden[T Float](h []T, o, tc []float64) {
	h64, ok := any(h).([]float64)
	if !useAVX2 || !ok || len(h) == 0 {
		lstmHiddenGeneric(h, o, tc)
		return
	}
	lstmHiddenAVX2(&h64[0], &o[0], &tc[0], len(h))
}

func lstmGateGrads[T Float](dg []T, gates, tc []float64, cPrev, dh, dc []T, rows, hidden int) {
	dg64, ok := any(dg).([]float64)
	if !useAVX2 || !ok {
		lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
		return
	}
	lstmGateGradsAVX2(&dg64[0], &gates[0], &tc[0], &any(cPrev).([]float64)[0],
		&any(dh).([]float64)[0], &any(dc).([]float64)[0], rows, hidden)
}
