package matrix

import (
	"fmt"
	"slices"
)

// level names a kernel path. Each primitive (the row kernel, the
// activations, the LSTM step kernels, the block and element-wise kernels,
// the uniform draws) has a portable Go twin and, on amd64, assembly forms;
// every path gives the twin's bits for every input (the contracts are in
// kernels.go, activations.go, lstm.go, elementwise.go and uniforms.go). kernelLevel is the path
// every call takes: the widest this CPU runs, decided once from CPUID and
// XCR0 (cpuLevel). No flag or environment variable moves it; only tests do,
// through WithKernelPath, to hold every path to the twin on one machine. A
// level without its own form of a primitive runs the next lower level's:
//
//	primitive                                  avx2   avx512
//	float64 row kernel (mulRows)               own    own
//	float32 row kernel                         own    avx2
//	Sigmoid, Tanh                              own    own
//	LSTMGather, LSTMCell, LSTMGateGrads        own    avx2
//	CopyBlock, AddBlock                        own    avx2
//	MulElems, KeepPositive                     own    avx2
//	DropoutApply, AdamUpdate                   own    avx2
//	LaggedUniforms                             own    avx2
type level int

const (
	portable level = iota // the Go twins, on every architecture
	avx2                  // four float64 lanes in Y registers
	avx512                // eight float64 lanes in Z registers
)

var levelNames = [...]string{"portable", "avx2", "avx512"}

func (l level) String() string { return levelNames[l] }

var kernelLevel = cpuLevel()

// KernelPaths names the paths this CPU runs, portable first (alone off amd64).
func KernelPaths() []string { return slices.Clone(levelNames[:cpuLevel()+1]) }

// WithKernelPath runs fn with every kernel on the named path, one of
// KernelPaths, and puts back the path it found when fn returns, panics or
// calls runtime.Goexit (t.Fatal); it refuses any other name. Only tests call
// it, to hold every path to the same bits on one machine. The path is one
// global: no kernel may run across a call but those fn starts and waits for.
func WithKernelPath(name string, fn func()) error {
	l := slices.Index(KernelPaths(), name)
	if l < 0 {
		return fmt.Errorf("matrix: no kernel path %q on this CPU, which runs %v", name, KernelPaths())
	}
	defer func(was level) { kernelLevel = was }(kernelLevel)
	kernelLevel = level(l)
	fn()
	return nil
}
