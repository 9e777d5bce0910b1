package nn

import (
	"math"
	"slices"

	"coda/internal/matrix"
)

// Adam is the Adam optimizer (Kingma & Ba) with bias correction, the
// networks' one optimizer: it updates parameters from their accumulated
// gradients, in place. Each parameter's update is one matrix.AdamUpdate
// call over its elements.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	// slab holds the moment estimates: every parameter's first moments in
	// parameter order, then their second moments in the same order, laid
	// out at the first Step for params, the list that Step was given.
	slab   []float64
	params []*Param
}

// NewAdam returns Adam with standard betas (0.9, 0.999) and eps 1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update. The moments belong to the parameter list
// of the first Step. A Step over a different list — another parameter,
// another order, or weights of another total size — starts over as a new
// Adam would: zero moments laid out for the new list, and the bias
// corrections back at step 1.
func (a *Adam) Step(params []*Param) {
	a.bind(params)
	a.t++
	k := matrix.AdamCoeffs{
		Beta1: a.Beta1, OneMinusBeta1: 1 - a.Beta1,
		Beta2: a.Beta2, OneMinusBeta2: 1 - a.Beta2,
		LR:  a.LR,
		C1:  1 - powInt(a.Beta1, a.t),
		C2:  1 - powInt(a.Beta2, a.t),
		Eps: a.Eps,
	}
	m, v := a.slab[:len(a.slab)/2], a.slab[len(a.slab)/2:]
	for _, p := range params {
		w := p.W.Data()
		matrix.AdamUpdate(w, p.Grad.Data(), m[:len(w)], v[:len(w)], &k)
		m, v = m[len(w):], v[len(w):]
	}
}

// powInt is math.Pow(x, float64(n)) for n >= 1, by the loop math.Pow
// runs for an integer exponent: x's fraction squared once per bit of n, the
// power of two kept apart, each product rounded on its own. math.Pow's own
// copy of the loop compiles to a fused multiply-add on arm64, so the bias
// corrections, and every weight a fit moves, would differ there from
// amd64's.
func powInt(x float64, n int) float64 {
	a1, ae := 1.0, 0
	x1, xe := math.Frexp(x)
	for i := n; i != 0; i >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The exponent is already past float64's range: Ldexp
			// underflows to 0 or overflows to Inf.
			ae += xe
			break
		}
		if i&1 == 1 {
			a1 = float64(a1 * x1)
			ae += xe
		}
		x1 = float64(x1 * x1)
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}

// reset puts a back before its first Step, keeping the slab's layout: zero
// moments, and the bias corrections back at step 1.
func (a *Adam) reset() {
	clear(a.slab)
	a.t = 0
}

// bind lays the slab out for params unless it already is.
func (a *Adam) bind(params []*Param) {
	n := 0
	for _, p := range params {
		n += len(p.W.Data())
	}
	if len(a.slab) == 2*n && slices.Equal(a.params, params) {
		return
	}
	a.slab = make([]float64, 2*n)
	a.params = slices.Clone(params)
	a.t = 0
}
