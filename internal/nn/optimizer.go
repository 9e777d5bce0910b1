package nn

import "math"

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
				w[i] -= s.LR * g[i]
			}
			continue
		}
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(w))
			s.velocity[p] = v
		}
		for i := range w {
			v[i] = s.Momentum*v[i] - s.LR*g[i]
			w[i] += v[i]
		}
	}
}

type adamState struct {
	m []float64
	v []float64
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t     int
	state map[*Param]*adamState
}

// NewAdam returns Adam with standard betas (0.9, 0.999) and eps 1e-8.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, state: make(map[*Param]*adamState)}
}

// Step applies one Adam update.
func (a *Adam) Step(params []*Param) {
	if a.state == nil {
		a.state = make(map[*Param]*adamState)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		w := p.W.Data()
		g := p.Grad.Data()
		st := a.state[p]
		if st == nil {
			st = &adamState{m: make([]float64, len(w)), v: make([]float64, len(w))}
			a.state[p] = st
		}
		m, v := st.m, st.v
		for i := range w {
			gi := g[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
			mhat := m[i] / c1
			vhat := v[i] / c2
			w[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Eps)
		}
	}
}
