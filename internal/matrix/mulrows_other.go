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

func lstmGather[T Float](g []float64, xw []T, xs int, hw []T, hs int, b []T, rows, hidden int) {
	lstmGatherGeneric(g, xw, xs, hw, hs, b, rows, hidden)
}

func lstmCell[T Float](c []T, tc []float64, cPrev []T, i, f, g []float64) {
	lstmCellGeneric(c, tc, cPrev, i, f, g)
}

func lstmHidden[T Float](h []T, o, tc []float64) { lstmHiddenGeneric(h, o, tc) }

func lstmGateGrads[T Float](dg []T, gates, tc []float64, cPrev, dh, dc []T, rows, hidden int) {
	lstmGateGradsGeneric(dg, gates, tc, cPrev, dh, dc, rows, hidden)
}
