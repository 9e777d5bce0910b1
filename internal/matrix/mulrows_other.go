//go:build !amd64

package matrix

// useAVX2 exists on every architecture so that tests which flip it build
// everywhere; off amd64 there is one path and the flag selects nothing.
var useAVX2 = false

func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero, zeroC bool) {
	mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero, zeroC)
}

func sigmoid(dst, src []float64) { sigmoidGeneric(dst, src) }

func tanh(dst, src []float64) { tanhGeneric(dst, src) }

func lstmGather(g, xw []float64, xs int, hw []float64, hs int, b []float64, rows, hidden int) {
	lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
}

func lstmCell(c, tc, cPrev, i, f, g []float64) { lstmCellGeneric(c, tc, cPrev, i, f, g) }

func lstmHidden(h, o, tc []float64) { lstmHiddenGeneric(h, o, tc) }

func lstmGateGrads(dg, gates, tc, cPrev, dh, dc []float64, rows, hidden int) {
	lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
}
