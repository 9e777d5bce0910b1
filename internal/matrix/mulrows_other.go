//go:build !amd64

package matrix

// useAVX2 exists on every architecture so that tests which flip it build
// everywhere; off amd64 there is one path and the flag selects nothing.
var useAVX2 = false

func mulRows[T Float](c, a []T, ars, aks int, b []T, m, k, n int, skipZero bool) {
	mulRowsGeneric(c, a, ars, aks, b, m, k, n, skipZero)
}

func sigmoid(dst, src []float64) { sigmoidGeneric(dst, src) }

func tanh(dst, src []float64) { tanhGeneric(dst, src) }
