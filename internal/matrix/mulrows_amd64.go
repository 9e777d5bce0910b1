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
// the fastest path this CPU has; every slice is as long as the exported
// function's shape says, and the shape is not empty for lstmGather and
// lstmGateGrads.
func lstmGather(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	if !useAVX2 {
		lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
		return
	}
	lstmGatherAVX2(&g[0], &xw[0], xs, &hw[0], hs, &b[0], rows, hidden)
}

func lstmCell(c, tc, cPrev, i, f, g []float64) {
	if !useAVX2 || len(c) == 0 {
		lstmCellGeneric(c, tc, cPrev, i, f, g)
		return
	}
	lstmCellAVX2(&c[0], &tc[0], &cPrev[0], &i[0], &f[0], &g[0], len(c))
}

func lstmHidden(h, o, tc []float64) {
	if !useAVX2 || len(h) == 0 {
		lstmHiddenGeneric(h, o, tc)
		return
	}
	lstmHiddenAVX2(&h[0], &o[0], &tc[0], len(h))
}

func lstmGateGrads(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	if !useAVX2 {
		lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
		return
	}
	lstmGateGradsAVX2(&dg[0], &gates[0], &tc[0], &cPrev[0], &dh[0], &dc[0], rows, hidden)
}
