package matrix

// cpuLevel is avx512 when the CPU has AVX-512F and the OS saves the opmask
// and ZMM state, else avx2 when it has AVX2 and the OS saves the YMM state,
// else portable (mulrows_amd64.s).
func cpuLevel() level

//go:noescape
func mulRowsF64(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)

//go:noescape
func mulRowsF64AVX512(c, a *float64, ars, aks int, b *float64, m, k, n int, skipZero, zeroC bool)

//go:noescape
func mulRowsF32(c, a *float32, ars, aks int, b *float32, m, k, n int, skipZero, zeroC bool)

// mulRows is mulRowsGeneric on the fastest path this CPU has. m, k and n are
// positive. The assembly trusts its arguments, so the last element the
// formula names in each slice is touched here first: a caller's shape bug
// panics instead of reading or writing past a slice.
func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	if kernelLevel == portable {
		mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
		return
	}
	_, _, _ = c[m*n-1], a[(m-1)*ars+(k-1)*aks], b[k*n-1]
	switch c := any(c).(type) {
	case []float64:
		if kernelLevel == avx512 {
			mulRowsF64AVX512(&c[0], &any(a).([]float64)[0], ars, aks, &any(b).([]float64)[0], m, k, n, skipZero, zeroC)
			return
		}
		mulRowsF64(&c[0], &any(a).([]float64)[0], ars, aks, &any(b).([]float64)[0], m, k, n, skipZero, zeroC)
	case []float32:
		mulRowsF32(&c[0], &any(a).([]float32)[0], ars, aks, &any(b).([]float32)[0], m, k, n, skipZero, zeroC)
	}
}

//go:noescape
func sigmoidAVX2(dst, src *float64, n int)

//go:noescape
func tanhAVX2(dst, src *float64, n int)

//go:noescape
func sigmoidAVX512(dst, src *float64, n int)

//go:noescape
func tanhAVX512(dst, src *float64, n int)

// sigmoid and tanh are the twins on the fastest path this CPU has; len(dst)
// == len(src).
func sigmoid(dst, src []float64) {
	switch {
	case kernelLevel == portable || len(src) == 0:
		sigmoidGeneric(dst, src)
	case kernelLevel == avx512:
		sigmoidAVX512(&dst[0], &src[0], len(src))
	default:
		sigmoidAVX2(&dst[0], &src[0], len(src))
	}
}

func tanh(dst, src []float64) {
	switch {
	case kernelLevel == portable || len(src) == 0:
		tanhGeneric(dst, src)
	case kernelLevel == avx512:
		tanhAVX512(&dst[0], &src[0], len(src))
	default:
		tanhAVX2(&dst[0], &src[0], len(src))
	}
}

//go:noescape
func lstmGatherAVX2(pre, xw *float64, xs int, hw *float64, hs int, b *float64, rows, hidden int)

//go:noescape
func lstmCellAVX2(c, tc, cPrev, ig, fg, cg *float64, n int)

//go:noescape
func lstmGateGradsAVX2(dg, gates, tc, cPrev, dh, dc *float64, rows, hidden int)

// lstmGather, lstmCell and lstmGateGrads are the LSTM twins on
// the fastest path this CPU has (AVX2 at either assembly level); every
// slice is as long as the exported function's shape says, and the shape is
// not empty for lstmGather and lstmGateGrads.
func lstmGather(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	if kernelLevel == portable {
		lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
		return
	}
	lstmGatherAVX2(&g[0], &xw[0], xs, &hw[0], hs, &b[0], rows, hidden)
}

func lstmCell(c, tc, cPrev, i, f, g []float64) {
	if kernelLevel == portable || len(c) == 0 {
		lstmCellGeneric(c, tc, cPrev, i, f, g)
		return
	}
	lstmCellAVX2(&c[0], &tc[0], &cPrev[0], &i[0], &f[0], &g[0], len(c))
}

func lstmGateGrads(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	if kernelLevel == portable {
		lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
		return
	}
	lstmGateGradsAVX2(&dg[0], &gates[0], &tc[0], &cPrev[0], &dh[0], &dc[0], rows, hidden)
}
