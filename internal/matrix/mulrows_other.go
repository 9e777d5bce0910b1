//go:build !amd64

package matrix

// cpuLevel is portable off amd64: there is one path.
func cpuLevel() level { return portable }

func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
}

func sigmoid(dst, src []float64) { sigmoidGeneric(dst, src) }

func tanh(dst, src []float64) { tanhGeneric(dst, src) }

func lstmGather(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
}

func lstmCell(c, tc, cPrev, i, f, g []float64) { lstmCellGeneric(c, tc, cPrev, i, f, g) }

func lstmGateGrads(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
}

func copyBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	copyBlockGeneric(dst, ds, src, ss, rows, cols)
}

func addBlock(dst []float64, ds int, src []float64, ss int, rows, cols int) {
	addBlockGeneric(dst, ds, src, ss, rows, cols)
}

func mulElems(dst, a, b []float64) { mulElemsGeneric(dst, a, b) }

func keepPositive(dst, src, sel []float64) { keepPositiveGeneric(dst, src, sel) }

func dropoutApply(mask, out, src []float64, keep, scale float64) {
	dropoutApplyGeneric(mask, out, src, keep, scale)
}

func adamUpdate(w, g, m, v []float64, k *AdamCoeffs) { adamUpdateGeneric(w, g, m, v, k) }

func laggedUniforms(dst []float64, feed, tap []uint64) bool {
	return laggedUniformsGeneric(dst, feed, tap)
}
