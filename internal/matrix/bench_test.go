package matrix

import (
	"fmt"
	"math/rand"
	"testing"
)

// Kernel A/B benchmarks. BenchmarkKernelMulNaive256 is the plain triple
// loop; MulSerial256 is MulInto (the row micro-kernel). DESIGN.md §3.1
// shows how to run the comparison.

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
	a := benchMat(256, 256, 1)
	c := benchMat(256, 256, 2)
	var dst *Matrix
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = MulInto(dst, a, c)
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

// fig11Shapes are the m x k x n products that carried three quarters of
// the multiply-adds of one counted search-cold-ts run (the Fig 11 search):
// an LSTM's gate, input-gradient and weight-gradient products (12 units,
// 48 gate columns) at a 32-row batch and over 256-row blocks, and the 8-
// and 16-column products of the convolutional networks.
var fig11Shapes = [][3]int{
	{32, 12, 48}, {32, 48, 12}, {12, 32, 48},
	{256, 12, 48}, {256, 48, 12}, {12, 256, 48},
	{256, 16, 8}, {256, 8, 16},
}

// BenchmarkRowKernelFig11Shapes times the row kernel alone on each path at
// each of fig11Shapes, as MulInto calls it (zero a elements skipped, c
// overwritten), in ns per multiply-add.
func BenchmarkRowKernelFig11Shapes(b *testing.B) {
	for _, path := range KernelPaths() {
		for _, s := range fig11Shapes {
			m, k, n := s[0], s[1], s[2]
			a, w, c := benchMat(m, k, 11), benchMat(k, n, 12), New(m, n)
			b.Run(fmt.Sprintf("%s/%dx%dx%d", path, m, k, n), func(b *testing.B) {
				if err := WithKernelPath(path, func() {
					for i := 0; i < b.N; i++ {
						mulRows(c.data, a.data, k, 1, w.data, m, k, n, true, true)
					}
				}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*m*k*n), "ns/madd")
			})
		}
	}
}

// zeroShapes are five products (m x k x n) of a Fig 11 fold fit whose a
// operands are ReLU or dropout outputs or their gradients: the 8- and
// 16-column panels of the convolutional and dense layers over 256-row
// blocks, and the 12-unit, 48-gate shapes at a 32-row batch and a 256-row
// block.
var zeroShapes = [][3]int{{256, 8, 8}, {256, 16, 8}, {32, 16, 16}, {32, 48, 12}, {256, 12, 48}}

// BenchmarkRowKernelZeros times the row kernel on each path as MulInto
// calls it, with a fraction of the a elements +-0 at random places, as in
// ReLU and dropout outputs and their gradients, in GF/s (two flops a
// multiply-add). Each sub-benchmark cycles through 256 distinct a operands:
// on a single reused one the branch predictor would learn where the zeros
// are, which a fold fit never lets it do.
func BenchmarkRowKernelZeros(b *testing.B) {
	const operands = 256
	for _, path := range KernelPaths() {
		for _, s := range zeroShapes {
			m, k, n := s[0], s[1], s[2]
			w, c := benchMat(k, n, 12), New(m, n)
			for _, frac := range []float64{0, 0.1, 0.5} {
				rng := rand.New(rand.NewSource(16))
				as := make([][]float64, operands)
				for i := range as {
					as[i] = benchMat(m, k, int64(100+i)).data
					for j := range as[i] {
						if rng.Float64() < frac {
							as[i][j] = 0
						}
					}
				}
				b.Run(fmt.Sprintf("%s/%dx%dx%d/zeros=%v", path, m, k, n, frac), func(b *testing.B) {
					if err := WithKernelPath(path, func() {
						for i := 0; i < b.N; i++ {
							mulRows(c.data, as[i%operands], k, 1, w.data, m, k, n, true, true)
						}
					}); err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(2*float64(b.N*m*k*n)/float64(b.Elapsed().Nanoseconds()), "GF/s")
				})
			}
		}
	}
}

// Activation A/B over 1024 elements of N(0, 2²), about the spread of LSTM
// gate pre-activations: the libm loop internal/nn ran before, then the
// primitive on each path this CPU runs.
func BenchmarkKernelActivations(b *testing.B) {
	src := benchMat(1, 1024, 10).Row(0)
	for i := range src {
		src[i] *= 2
	}
	dst := make([]float64, len(src))
	for _, a := range activations {
		run := func(name string, fn func(dst, src []float64)) {
			b.Run(a.name+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn(dst, src)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/elem")
			})
		}
		run("libm", func(dst, src []float64) {
			for i, x := range src {
				dst[i] = a.libm(x)
			}
		})
		for _, path := range KernelPaths() {
			if err := WithKernelPath(path, func() { run(path, a.fn) }); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkElementwiseKernels times the block and element-wise kernels on
// each path at the fold fit's shapes, in ns per element: a Conv1D tap
// block of 8 steps at 2 and 8 channels (kernel 3, so the cols rows are 3
// taps wide), and the element-wise passes over a 256 x 8 activation block
// and a 24-element bias.
func BenchmarkElementwiseKernels(b *testing.B) {
	src := benchMat(1, 2048, 13).Row(0)
	sel, w := benchMat(1, 2048, 14).Row(0), benchMat(1, 2048, 15).Row(0)
	dst, m, v := make([]float64, 2048), make([]float64, 2048), make([]float64, 2048)
	k := &AdamCoeffs{0.9, 0.1, 0.999, 0.001, 1e-3, 0.1, 0.001, 1e-8}
	run := func(path, name string, elems int, fn func()) {
		b.Run(path+"/"+name, func(b *testing.B) {
			if err := WithKernelPath(path, func() {
				for i := 0; i < b.N; i++ {
					fn()
				}
			}); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*elems), "ns/elem")
		})
	}
	for _, path := range KernelPaths() {
		for _, ch := range []int{2, 8} {
			run(path, fmt.Sprintf("CopyBlock/8x%d", ch), 8*ch, func() { copyBlock(dst, 3*ch, src, ch, 8, ch) })
			run(path, fmt.Sprintf("AddBlock/8x%d", ch), 8*ch, func() { addBlock(dst, ch, src, 3*ch, 8, ch) })
		}
		for _, n := range []int{2048, 24} {
			d, s, e := dst[:n], src[:n], sel[:n]
			run(path, fmt.Sprintf("MulElems/%d", n), n, func() { mulElems(d, s, e) })
			run(path, fmt.Sprintf("KeepPositive/%d", n), n, func() { keepPositive(d, s, e) })
			run(path, fmt.Sprintf("DropoutApply/%d", n), n, func() { copy(m, e); dropoutApply(m[:n], d, s, 0.8, 1.25) })
			run(path, fmt.Sprintf("AdamUpdate/%d", n), n, func() { adamUpdate(w[:n], s, m[:n], v[:n], k) })
		}
	}
}
