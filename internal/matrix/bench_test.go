package matrix

import (
	"math/rand"
	"runtime"
	"testing"
)

// Kernel A/B benchmarks. BenchmarkKernelMulNaive256 is the plain triple
// loop; MulSerial256 and MulParallel256 are MulInto (the row micro-kernel)
// on one goroutine and on the worker budget (README "Kernel performance"
// shows how to run the comparison).

func benchMat(rows, cols int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = rng.NormFloat64()
	}
	return m
}

func BenchmarkKernelMulNaive256(b *testing.B) {
	a := benchMat(256, 256, 1)
	c := benchMat(256, 256, 2)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = naiveMulInto(dst, a, c)
	}
}

func BenchmarkKernelMulSerial256(b *testing.B) {
	defer SetMaxWorkers(runtime.GOMAXPROCS(0))
	SetMaxWorkers(1) // the kernel alone, without row parallelism
	a := benchMat(256, 256, 1)
	c := benchMat(256, 256, 2)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulInto(dst, a, c)
	}
}

func BenchmarkKernelMulParallel256(b *testing.B) {
	a := benchMat(256, 256, 1)
	c := benchMat(256, 256, 2)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulInto(dst, a, c)
	}
}

func BenchmarkKernelMulTransposeA256(b *testing.B) {
	a := benchMat(256, 256, 3)
	c := benchMat(256, 256, 4)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulTransposeAInto(dst, a, c)
	}
}

func BenchmarkKernelMulVec1024(b *testing.B) {
	m := benchMat(1024, 512, 5)
	v := benchMat(1, 512, 6).Row(0)
	var dst []float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulVecInto(dst, m, v)
	}
}

func BenchmarkKernelTranspose1024(b *testing.B) {
	m := benchMat(1024, 768, 7)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = TInto(dst, m)
	}
}

func benchMat32(rows, cols int, seed int64) *Mat[float32] {
	rng := rand.New(rand.NewSource(seed))
	m := NewOf[float32](rows, cols)
	for i := range m.data {
		m.data[i] = float32(rng.NormFloat64())
	}
	return m
}

// Precision A/B at 256^3: identical seeds and summation order, only the
// element width differs (8 lanes per vector against 4, half the bytes).
// README "Kernel performance" documents the expected ratio.

func BenchmarkPrecisionMulF64_256(b *testing.B) {
	a := benchMat(256, 256, 1)
	c := benchMat(256, 256, 2)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulInto(dst, a, c)
	}
}

func BenchmarkPrecisionMulF32_256(b *testing.B) {
	a := benchMat32(256, 256, 1)
	c := benchMat32(256, 256, 2)
	var dst *Mat[float32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulInto(dst, a, c)
	}
}

func BenchmarkPrecisionMulTransposeB_F64_256(b *testing.B) {
	a := benchMat(256, 256, 3)
	c := benchMat(256, 256, 4)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulTransposeBInto(dst, a, c)
	}
}

func BenchmarkPrecisionMulTransposeB_F32_256(b *testing.B) {
	a := benchMat32(256, 256, 3)
	c := benchMat32(256, 256, 4)
	var dst *Mat[float32]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulTransposeBInto(dst, a, c)
	}
}

func BenchmarkKernelCovariance(b *testing.B) {
	m := benchMat(2048, 64, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Covariance()
	}
}

func BenchmarkKernelColStds(b *testing.B) {
	m := benchMat(4096, 64, 9)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.ColStds()
	}
}

// Activation A/B over 1024 elements of N(0, 2²), about the spread of LSTM
// gate pre-activations: the libm loop internal/nn ran before, the portable
// twin, and the primitive (the AVX2 kernel where the CPU has one).
func BenchmarkKernelActivations(b *testing.B) {
	src := benchMat(1, 1024, 10).Row(0)
	for i := range src {
		src[i] *= 2
	}
	dst := make([]float64, len(src))
	for _, a := range activations {
		libm := func(dst, src []float64) {
			for i, x := range src {
				dst[i] = a.libm(x)
			}
		}
		for _, path := range []struct {
			name string
			fn   func(dst, src []float64)
		}{{"libm", libm}, {"portable", a.generic}, {"kernel", a.fn}} {
			b.Run(a.name+"/"+path.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					path.fn(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
			})
		}
	}
}
