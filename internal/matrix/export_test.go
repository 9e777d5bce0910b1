package matrix

import "testing"

// KernelPaths names the kernel paths this CPU runs, the portable one first,
// and logs each one it lacks — so that tests outside this package can hold
// every path against the others.
func KernelPaths(t testing.TB) []string {
	t.Helper()
	paths := []string{portable.String()}
	for _, l := range asmLevels(t) {
		paths = append(paths, l.String())
	}
	return paths
}

// UseKernelPath puts the row kernel, the activations and the LSTM step
// kernels on the named path (one of KernelPaths) until t ends.
func UseKernelPath(t testing.TB, path string) {
	t.Helper()
	was := kernelLevel
	for l, name := range levelNames {
		if name == path && level(l) <= cpuLevel() {
			kernelLevel = level(l)
			t.Cleanup(func() { kernelLevel = was })
			return
		}
	}
	t.Fatalf("no kernel path %q on this CPU", path)
}
