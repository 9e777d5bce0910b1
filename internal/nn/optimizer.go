package nn

import (
	"math"
	"slices"

	"coda/internal/matrix"
)

// Optimizer updates parameters from their accumulated gradients, in place.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	velocity map[*Param][]float64
}

// NewSGD returns SGD with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, velocity: make(map[*Param][]float64)}
}

// Step applies one SGD update.
func (s *SGD) Step(params []*Param) {
	if s.velocity == nil {
		s.velocity = make(map[*Param][]float64)
	}
	for _, p := range params {
		w := p.W.Data()
		g := p.Grad.Data()
		if s.Momentum == 0 {
			for i := range w {
				w[i] -= float64(s.LR * g[i])
			}
			continue
		}
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(w))
			s.velocity[p] = v
		}
		for i := range w {
			v[i] = float64(s.Momentum*v[i]) - float64(s.LR*g[i])
			w[i] += v[i]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction. Each
// parameter's update is one matrix.AdamUpdate call over its elements.
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
		C1:  1 - math.Pow(a.Beta1, float64(a.t)),
		C2:  1 - math.Pow(a.Beta2, float64(a.t)),
		Eps: a.Eps,
	}
	m, v := a.slab[:len(a.slab)/2], a.slab[len(a.slab)/2:]
	for _, p := range params {
		w := p.W.Data()
		matrix.AdamUpdate(w, p.Grad.Data(), m[:len(w)], v[:len(w)], &k)
		m, v = m[len(w):], v[len(w):]
	}
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
