package matrix

import "testing"

// UsePortableKernel puts the row kernel, the activations and the LSTM step
// kernels on their portable paths until t ends and reports whether that differs from what the
// CPU would run — so that tests outside this package can hold the two paths
// against each other.
func UsePortableKernel(t testing.TB) (wasAsm bool) {
	wasAsm = useAVX2
	useAVX2 = false
	t.Cleanup(func() { useAVX2 = wasAsm })
	return wasAsm
}
