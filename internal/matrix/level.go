package matrix

// level names a kernel path. Each primitive (the row kernel, the
// activations, the LSTM step kernels) has a portable Go twin and, on amd64,
// assembly forms; every path gives the twin's bits for every input (the
// contracts are in kernels.go, activations.go and lstm.go). kernelLevel is
// the path every call takes: the widest this CPU runs, decided once from
// CPUID and XCR0 (cpuLevel). No flag or environment variable moves it; only
// tests do, to hold every path to the twin on one machine.
type level int

const (
	portable level = iota // the Go twins, on every architecture
	avx2                  // four float64 lanes in Y registers
	// avx512 is eight float64 lanes in Z registers for the float64 row
	// kernel and the activations; the LSTM kernels and the float32 row
	// kernel run their AVX2 forms.
	avx512
)

var levelNames = [...]string{"portable", "avx2", "avx512"}

func (l level) String() string { return levelNames[l] }

var kernelLevel = cpuLevel()
