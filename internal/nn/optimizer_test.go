package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// referenceAdam is Adam as it ran before the moment slab and the
// matrix.AdamUpdate kernel: per-parameter moments in a map, and the
// update's statements in their original order.
type referenceAdam struct {
	lr, beta1, beta2, eps float64
	t                     int
	m, v                  map[*Param][]float64
}

func (a *referenceAdam) step(params []*Param) {
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, p := range params {
		w, g := p.W.Data(), p.Grad.Data()
		if a.m[p] == nil {
			a.m[p], a.v[p] = make([]float64, len(w)), make([]float64, len(w))
		}
		m, v := a.m[p], a.v[p]
		for i := range w {
			gi := g[i]
			m[i] = a.beta1*m[i] + (1-a.beta1)*gi
			v[i] = a.beta2*v[i] + (1-a.beta2)*gi*gi
			mhat := m[i] / c1
			vhat := v[i] / c2
			w[i] -= a.lr * mhat / (math.Sqrt(vhat) + a.eps)
		}
	}
}

// adamParams returns params of the given sizes, weights and gradients
// drawn from rng, and a deep copy of them.
func adamParams(rng *rand.Rand, sizes ...int) (params, twin []*Param) {
	for _, n := range sizes {
		p, q := newParam(1, n), newParam(1, n)
		for i := range p.W.Data() {
			p.W.Data()[i] = rng.NormFloat64()
			p.Grad.Data()[i] = rng.NormFloat64()
		}
		copy(q.W.Data(), p.W.Data())
		copy(q.Grad.Data(), p.Grad.Data())
		params, twin = append(params, p), append(twin, q)
	}
	return params, twin
}

// regrad draws new gradients for params and copies them into twin.
func regrad(rng *rand.Rand, params, twin []*Param) {
	for k, p := range params {
		for i := range p.Grad.Data() {
			p.Grad.Data()[i] = rng.NormFloat64()
		}
		copy(twin[k].Grad.Data(), p.Grad.Data())
	}
}

func sameWeights(t *testing.T, what string, got, want []*Param) {
	t.Helper()
	for k := range want {
		sameBits(t, what, got[k].W, want[k].W)
	}
}

// TestAdamMatchesReference holds the slab-and-kernel Adam to the per-map
// form it replaced, bit for bit over ten steps, with parameter sizes that
// leave every vector tail. It runs on this CPU's kernel level;
// internal/matrix holds every level's AdamUpdate to its portable twin.
func TestAdamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	params, twin := adamParams(rng, 1, 3, 8, 13, 48, 17)
	opt := NewAdam(0.01)
	ref := &referenceAdam{lr: 0.01, beta1: 0.9, beta2: 0.999, eps: 1e-8, m: map[*Param][]float64{}, v: map[*Param][]float64{}}
	for step := 0; step < 10; step++ {
		opt.Step(params)
		ref.step(twin)
		sameWeights(t, "step", params, twin)
		regrad(rng, params, twin)
	}
}

// TestAdamNewParameterListStartsOver pins what a Step over a different
// parameter list does: it starts over as a fresh Adam would, moments and
// bias corrections both, and so does a Step back to the first list.
func TestAdamNewParameterListStartsOver(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, aTwin := adamParams(rng, 5, 9)
	b, bTwin := adamParams(rng, 9, 5)
	opt := NewAdam(0.01)
	opt.Step(a)
	opt.Step(a)

	for _, c := range []struct {
		name       string
		list, twin []*Param
	}{
		{"another list", b, bTwin},
		{"the same parameters reordered", []*Param{a[1], a[0]}, []*Param{aTwin[1], aTwin[0]}},
		{"the first list again", a, aTwin},
	} {
		for k, p := range c.list {
			copy(c.twin[k].W.Data(), p.W.Data())
			copy(c.twin[k].Grad.Data(), p.Grad.Data())
		}
		fresh := NewAdam(0.01)
		opt.Step(c.list)
		fresh.Step(c.twin)
		sameWeights(t, c.name, c.list, c.twin)
		opt.Step(c.list)
		fresh.Step(c.twin)
		sameWeights(t, c.name+", second step", c.list, c.twin)
	}
}

// TestPowIntMatchesMathPow holds the bias corrections' power to math.Pow
// bit for bit for the betas Adam runs with, over every step count a fit
// reaches, so moving off math.Pow moved no weight on amd64. Off amd64
// math.Pow fuses a product powInt rounds, which is why powInt exists.
func TestPowIntMatchesMathPow(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("math.Pow on %s is not the rounding amd64's scores were computed with", runtime.GOARCH)
	}
	a := NewAdam(0.01)
	for _, beta := range []float64{a.Beta1, a.Beta2} {
		for n := 1; n <= 100_000; n++ {
			if got, want := powInt(beta, n), math.Pow(beta, float64(n)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("powInt(%v, %d) = %v (%#x), math.Pow %v (%#x)", beta, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}
