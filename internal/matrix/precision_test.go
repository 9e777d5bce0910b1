package matrix

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// randMat32 converts a deterministic f64 random matrix down to float32.
func randMat32(rng *rand.Rand, rows, cols int) *Mat[float32] {
	return ConvertInto[float32](nil, randMat(rng, rows, cols))
}

// TestF32KernelsWorkerCountIndependent pins the float32 half of the
// contract: every cell is summed by one goroutine in ascending k, so results
// must be bitwise identical at any worker budget. All three products are
// above parMinFlops, so the rows really are split.
func TestF32KernelsWorkerCountIndependent(t *testing.T) {
	defer SetMaxWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	a := randMat32(rng, 211, 97)
	b := randMat32(rng, 97, 420)
	c := randMat32(rng, 211, 420)
	tall := randMat32(rng, 2100, 2000) // MulVec crosses the cutoff at 2*rows*cols flops
	v := make([]float32, 2000)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}

	SetMaxWorkers(1)
	serial, err := MulInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	serialTA, err := MulTransposeAInto(nil, a, c)
	if err != nil {
		t.Fatal(err)
	}
	serialTB, err := MulTransposeBInto(nil, a, b.T())
	if err != nil {
		t.Fatal(err)
	}
	serialVec, err := MulVecInto(nil, tall, v)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{2, 3, 8} {
		SetMaxWorkers(workers)
		par, err := MulInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "f32 mul", par, serial)
		parTA, err := MulTransposeAInto(nil, a, c)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "f32 mulTA", parTA, serialTA)
		parTB, err := MulTransposeBInto(nil, a, b.T())
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "f32 mulTB", parTB, serialTB)
		parVec, err := MulVecInto(nil, tall, v)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "f32 mulvec", parVec, serialVec)
	}
}

// TestF32MulTracksF64 bounds the rounding gap between the two widths: the
// f32 product of down-converted inputs must match the f64 product within
// accumulated single-precision rounding.
func TestF32MulTracksF64(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 96, 128)
	b := randMat(rng, 128, 64)
	want, err := MulInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := MulInto(nil, ConvertInto[float32](nil, a), ConvertInto[float32](nil, b))
	if err != nil {
		t.Fatal(err)
	}
	// ~k*eps32 worst case with k=128; the observed error is far below it.
	const tol = 128 * 1.2e-7 * 8
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			w := want.At(i, j)
			if d := math.Abs(float64(got.At(i, j)) - w); d > tol*(math.Abs(w)+1) {
				t.Fatalf("(%d,%d): f32 %v vs f64 %v (diff %v)", i, j, got.At(i, j), w, d)
			}
		}
	}
}
