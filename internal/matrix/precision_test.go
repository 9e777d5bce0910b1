package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// randMat32 converts a deterministic f64 random matrix down to float32.
func randMat32(rng *rand.Rand, rows, cols int) *Mat[float32] {
	return ConvertInto[float32](nil, randMat(rng, rows, cols))
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
