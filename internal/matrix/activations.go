package matrix

import (
	"fmt"
	"math"
)

// Elementwise activations.
//
// Sigmoid and Tanh are the package's second primitive, with mulRows's rule:
// on amd64 with AVX2 an assembly kernel does four elements per instruction
// (activations_amd64.s), elsewhere — and whenever a test clears useAVX2 —
// the portable twin below does one, and the two give the same bits for
// every input. They can because each is a fixed sequence of IEEE
// operations, each rounded once, in the same order on both paths: no FMA,
// no libm call, no table. The twin writes every product as float64(a*b), which the Go spec requires to
// be rounded, so no compiler may fuse it into the add that follows (a plain
// p*r + c compiles to FMADDD on arm64; crossarch_test.go checks the twin's
// arm64 code for fused instructions).
//
// Both share one exp core for x <= 0, expCore:
//   - Cody–Waite reduction, x = k·ln2 + r with |r| <= ln2/2: adding
//     0x1.8p52 to x·log2(e) rounds it to the integer k and leaves k in the
//     sum's low bits; ln2 is split into a 32-bit head, so k·head is exact,
//     and a tail;
//   - expm1(r) = r + r²·s(r), s the degree-11 Horner form of the Taylor
//     series (coefficients 1/2! ... 1/13!), whose truncation is under
//     2^-56 of the result on |r| <= ln2/2;
//   - 2^k from bits: the sum's bits plus 1023, shifted into the exponent
//     field.
//
// Then e^x = 2^k + 2^k·p and e^x − 1 = (2^k − 1) + 2^k·p, where 2^k·p and
// 2^k − 1 are exact, so each is one rounding of the exact terms. Below
// expMin, 2^k would leave the normal range: x is clamped to expMin and 2^k
// flushed to +0, so e^x reads +0 and e^x − 1 reads −1.
//
// Sigmoid(z) = num/(1+e) with e = e^−|z| and num = 1 for a clear sign bit, e
// for a set one — the libm forms 1/(1+e^−z) and e^z/(1+e^z) of either half.
// Tanh(x) = −em/(2+em) with em = e^−2|x| − 1, which is tanh(|x|), and x's
// sign bit copied onto it.

const (
	signBit  = 1 << 63
	expLog2e = 1.44269504088896338700e+00
	expShift = 0x1.8p52
	expLn2Hi = 6.93147180369123816490e-01 // 0x3fe62e42fee00000: 32 significant bits
	expLn2Lo = 1.90821492927058770002e-10 // ln2 − expLn2Hi
	// expMin is the least x whose 2^k is normal with room to spare
	// (k >= −1021); e^x there is 3.3e−308.
	expMin = -708.0

	expC2  = 1.0 / 2
	expC3  = 1.0 / 6
	expC4  = 1.0 / 24
	expC5  = 1.0 / 120
	expC6  = 1.0 / 720
	expC7  = 1.0 / 5040
	expC8  = 1.0 / 40320
	expC9  = 1.0 / 362880
	expC10 = 1.0 / 3628800
	expC11 = 1.0 / 39916800
	expC12 = 1.0 / 479001600
	expC13 = 1.0 / 6227020800
)

// expTab holds the AVX2 kernels' constants, one 32-byte row each — a value
// four times over, so that an instruction takes it as a memory operand — in
// the order activations_amd64.s addresses them. The twin uses the constants
// above directly.
var expTab = [...][4]uint64{
	splat(signBit),
	splat(^uint64(signBit)),
	splatF(expMin),
	splatF(expLog2e),
	splatF(expShift),
	splatF(expLn2Hi),
	splatF(expLn2Lo),
	splat(1023),
	splatF(1),
	splatF(2),
	{0, 1, 2, 3}, // lane numbers, for the tail's mask
	splatF(expC13),
	splatF(expC12),
	splatF(expC11),
	splatF(expC10),
	splatF(expC9),
	splatF(expC8),
	splatF(expC7),
	splatF(expC6),
	splatF(expC5),
	splatF(expC4),
	splatF(expC3),
	splatF(expC2),
}

func splat(b uint64) [4]uint64   { return [4]uint64{b, b, b, b} }
func splatF(f float64) [4]uint64 { return splat(math.Float64bits(f)) }

// Sigmoid sets dst[i] = 1/(1+e^−src[i]) for every i < len(src). dst may be
// src itself (in place) but must not overlap it otherwise, and must be at
// least as long.
//
// Every result is within 4 ulp of the libm form (1/(1+math.Exp(−z)) for
// z >= 0, e/(1+e) with e = math.Exp(z) below) for |z| <= 700 — 2 ulp is the
// largest seen over a million seeded inputs (activations_test.go). Below
// −708 the result is +0 (the true value is subnormal); ±0 gives 0.5, +Inf 1,
// −Inf +0, NaN a NaN. The bits are the same on every architecture and on
// both code paths.
func Sigmoid(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("matrix: Sigmoid of %d elements into %d", len(src), len(dst)))
	}
	sigmoid(dst[:len(src)], src)
}

// Tanh sets dst[i] = tanh(src[i]) for every i < len(src), under Sigmoid's
// rules for dst.
//
// Every result is within 4 ulp of math.Tanh for |x| <= 700 — 2 ulp is the
// largest seen over a million seeded inputs (activations_test.go). ±0 keeps
// its sign, ±Inf gives ±1, NaN a NaN. The bits are the same on every architecture and on both code paths.
func Tanh(dst, src []float64) {
	if len(dst) < len(src) {
		panic(fmt.Sprintf("matrix: Tanh of %d elements into %d", len(src), len(dst)))
	}
	tanh(dst[:len(src)], src)
}

// sigmoidGeneric is Sigmoid's portable twin.
func sigmoidGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for i, z := range src {
		scale, p := expCore(negAbs(z))
		e := scale + float64(scale*p)
		num := 1.0
		if math.Signbit(z) {
			num = e
		}
		dst[i] = num / (1 + e)
	}
}

// tanhGeneric is Tanh's portable twin.
func tanhGeneric(dst, src []float64) {
	dst = dst[:len(src)]
	for i, x := range src {
		a := negAbs(x)
		scale, p := expCore(a + a)
		em := (scale - 1) + float64(scale*p)
		t := em / (2 + em)
		dst[i] = math.Float64frombits(math.Float64bits(t)&^signBit | math.Float64bits(x)&signBit)
	}
}

// expCore reduces x <= 0 (or NaN) to e^x = scale·(1+p): scale = 2^k and
// p = expm1(r), both as described at the top of this file.
func expCore(x float64) (scale, p float64) {
	flush := x < expMin
	if flush {
		x = expMin
	}
	t := float64(x*expLog2e) + expShift
	k := t - expShift
	r := (x - float64(k*expLn2Hi)) - float64(k*expLn2Lo)
	s := float64(expC13*r) + expC12
	s = float64(s*r) + expC11
	s = float64(s*r) + expC10
	s = float64(s*r) + expC9
	s = float64(s*r) + expC8
	s = float64(s*r) + expC7
	s = float64(s*r) + expC6
	s = float64(s*r) + expC5
	s = float64(s*r) + expC4
	s = float64(s*r) + expC3
	s = float64(s*r) + expC2
	p = r + float64(float64(r*r)*s)
	scale = math.Float64frombits((math.Float64bits(t) + 1023) << 52)
	if flush {
		scale = 0
	}
	return scale, p
}

// negAbs is −|x|: x with its sign bit set.
func negAbs(x float64) float64 { return math.Float64frombits(math.Float64bits(x) | signBit) }
