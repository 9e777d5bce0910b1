package nn

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"coda/internal/matrix"
)

// numericalGradCheck verifies every parameter gradient of a single layer
// against a central finite difference of the scalar loss sum(out^2)/2.
func numericalGradCheck(t *testing.T, layer Layer, in *matrix.Matrix, tol float64) {
	t.Helper()
	loss := func() float64 {
		out, err := layer.Forward(in, false)
		if err != nil {
			t.Fatal(err)
		}
		s := 0.0
		for _, v := range out.Data() {
			s += v * v / 2
		}
		return s
	}
	// Analytic pass: dLoss/dOut = out.
	out, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range layer.Parameters() {
		p.zeroGrad()
	}
	dIn, err := layer.Backward(out.Clone(), true)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 1e-5
	// Check parameter gradients.
	for pi, p := range layer.Parameters() {
		data := p.W.Data()
		grads := p.Grad.Data()
		step := len(data)/6 + 1 // sample entries to keep tests fast
		for i := 0; i < len(data); i += step {
			orig := data[i]
			data[i] = orig + eps
			lPlus := loss()
			data[i] = orig - eps
			lMinus := loss()
			data[i] = orig
			num := (lPlus - lMinus) / (2 * eps)
			if math.Abs(num-grads[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d entry %d: analytic %v vs numeric %v", pi, i, grads[i], num)
			}
		}
	}
	// Check input gradients.
	data := in.Data()
	step := len(data)/6 + 1
	for i := 0; i < len(data); i += step {
		orig := data[i]
		data[i] = orig + eps
		lPlus := loss()
		data[i] = orig - eps
		lMinus := loss()
		data[i] = orig
		num := (lPlus - lMinus) / (2 * eps)
		if math.Abs(num-dIn.Data()[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("input entry %d: analytic %v vs numeric %v", i, dIn.Data()[i], num)
		}
	}
}

// testRand returns a generator for a test's layers and math/rand's Rand
// over that same generator for its data, so that layers and data share one
// sequence as they did when the layers drew from a rand.Rand.
func testRand(seed int64) (*matrix.Rand, *rand.Rand) {
	r := matrix.NewRand(seed)
	return r, rand.New(r)
}

func randInput(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseGradients(t *testing.T) {
	src, rng := testRand(1)
	layer := NewDense(5, 3, src)
	numericalGradCheck(t, layer, randInput(rng, 4, 5), 1e-4)
}

func TestReLUGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Keep values away from the kink at 0.
	in := randInput(rng, 3, 6)
	for i, v := range in.Data() {
		if math.Abs(v) < 0.1 {
			in.Data()[i] = 0.5
		}
	}
	numericalGradCheck(t, NewReLU(), in, 1e-4)
}

// TestReLUBranchFreeMatchesBranchForm pins the bit-mask ReLU to the branch
// form it replaced (Forward: x if x > 0, else 0; Backward: the gradient
// where the input was positive, else 0) on the values a sign test can get
// wrong: ±0, ±Inf, NaNs of either sign, subnormals, and every pairing of
// them as input and gradient.
func TestReLUBranchFreeMatchesBranchForm(t *testing.T) {
	nan := math.NaN()
	vals := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		nan, math.Copysign(nan, -1), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff0000000000001),
		5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
		1.5, -1.5, math.MaxFloat64, -math.MaxFloat64,
	}
	var xs, gs []float64
	for _, x := range vals {
		for _, g := range vals {
			xs, gs = append(xs, x), append(gs, g)
		}
	}
	x, _ := matrix.FromSlice(len(vals), len(vals), xs)
	grad, _ := matrix.FromSlice(len(vals), len(vals), gs)
	r := NewReLU()
	out, err := r.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := r.Backward(grad, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range xs {
		wantOut, wantDX := 0.0, 0.0
		if v > 0 {
			wantOut, wantDX = v, gs[i]
		}
		if got := out.Data()[i]; math.Float64bits(got) != math.Float64bits(wantOut) {
			t.Errorf("Forward(%v) = %v (%#x), branch form %v (%#x)", v, got, math.Float64bits(got), wantOut, math.Float64bits(wantOut))
		}
		if got := dx.Data()[i]; math.Float64bits(got) != math.Float64bits(wantDX) {
			t.Errorf("Backward(%v) at input %v = %v (%#x), branch form %v (%#x)", gs[i], v, got, math.Float64bits(got), wantDX, math.Float64bits(wantDX))
		}
	}
}

func TestConv1DGradientsValid(t *testing.T) {
	src, rng := testRand(4)
	layer := NewConv1D(8, 2, 3, 3, 1, false, src)
	numericalGradCheck(t, layer, randInput(rng, 2, 16), 1e-4)
}

func TestConv1DGradientsCausalDilated(t *testing.T) {
	src, rng := testRand(5)
	layer := NewConv1D(8, 2, 2, 2, 2, true, src)
	if layer.OutLen() != 8 {
		t.Fatalf("causal OutLen = %d, want 8", layer.OutLen())
	}
	numericalGradCheck(t, layer, randInput(rng, 2, 16), 1e-4)
}

func TestConv1DCausality(t *testing.T) {
	src, rng := testRand(6)
	layer := NewConv1D(10, 1, 1, 3, 2, true, src)
	in := randInput(rng, 1, 10)
	out1, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	// Forward outputs are only valid until the layer's next Forward
	// (Layer buffer contract), so keep a copy across the second call.
	out1 = out1.Clone()
	// Perturb the last timestep: only the last output may change.
	in2 := in.Clone()
	in2.Set(0, 9, in2.At(0, 9)+100)
	out2, err := layer.Forward(in2, false)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < 9; tt++ {
		if out1.At(0, tt) != out2.At(0, tt) {
			t.Fatalf("causal conv leaked future info at t=%d", tt)
		}
	}
	if out1.At(0, 9) == out2.At(0, 9) {
		t.Fatal("last output should respond to last input")
	}
}

func TestMaxPool1D(t *testing.T) {
	layer := NewMaxPool1D(4, 2, 2)
	in, err := matrix.NewFromRows([][]float64{{1, 10, 3, 20, 5, 30, 2, 40}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{3, 20, 5, 40}
	for j, w := range want {
		if out.At(0, j) != w {
			t.Fatalf("pool out[%d] = %v, want %v", j, out.At(0, j), w)
		}
	}
	// Gradient routes to argmax positions only.
	grad, _ := matrix.NewFromRows([][]float64{{1, 1, 1, 1}})
	dx, err := layer.Backward(grad, true)
	if err != nil {
		t.Fatal(err)
	}
	wantDx := []float64{0, 0, 1, 1, 1, 0, 0, 1}
	for j, w := range wantDx {
		if dx.At(0, j) != w {
			t.Fatalf("pool dx[%d] = %v, want %v", j, dx.At(0, j), w)
		}
	}
}

// TestMaxPool1DPropagatesNaN: a window of NaNs (or of -Infs) used to pool
// to -Inf with no argmax, and Backward then indexed position -1 and
// panicked — which, with no recover in core.Search, killed the process.
// A NaN now propagates from the first position that holds one, and every
// window's gradient lands inside it.
func TestMaxPool1DPropagatesNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(-1)
	layer := NewMaxPool1D(6, 2, 3)
	// Column s*2+c is step s of channel c; windows are steps 0-2 and 3-5.
	in, err := matrix.NewFromRows([][]float64{{
		nan, 1, nan, nan, nan, 7,
		inf, 2, inf, 9, inf, 9,
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	grad, _ := matrix.NewFromRows([][]float64{{1, 1, 1, 1}})
	dx, err := layer.Backward(grad, true)
	if err != nil {
		t.Fatal(err)
	}
	if o := out.Row(0); !math.IsNaN(o[0]) || !math.IsNaN(o[1]) || o[2] != inf || o[3] != 9 {
		t.Fatalf("pooled %v, want [NaN NaN -Inf 9]", o)
	}
	wantDx := []float64{1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0}
	for j, w := range wantDx {
		if dx.At(0, j) != w {
			t.Fatalf("pool dx = %v, want %v", dx.Row(0), wantDx)
		}
	}
}

func TestLastTimestep(t *testing.T) {
	layer := NewLastTimestep(3, 2)
	in, _ := matrix.NewFromRows([][]float64{{1, 2, 3, 4, 5, 6}})
	out, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.At(0, 0) != 5 || out.At(0, 1) != 6 {
		t.Fatalf("last timestep = %v", out)
	}
	grad, _ := matrix.NewFromRows([][]float64{{7, 8}})
	dx, err := layer.Backward(grad, true)
	if err != nil {
		t.Fatal(err)
	}
	if dx.At(0, 4) != 7 || dx.At(0, 5) != 8 || dx.At(0, 0) != 0 {
		t.Fatalf("last timestep dx = %v", dx)
	}
}

func TestLSTMGradients(t *testing.T) {
	src, rng := testRand(7)
	layer := NewLSTM(4, 2, 3, src)
	numericalGradCheck(t, layer, randInput(rng, 2, 8), 1e-4)
}

func TestGatedResidualBlockGradients(t *testing.T) {
	src, rng := testRand(8)
	layer := NewGatedResidualBlock(6, 2, 2, 2, src)
	numericalGradCheck(t, layer, randInput(rng, 2, 12), 1e-4)
}

func TestResidualConvBlockGradients(t *testing.T) {
	src, rng := testRand(9)
	layer := NewResidualConvBlock(6, 2, 2, 1, src)
	in := randInput(rng, 2, 12)
	// Keep conv pre-activations away from the ReLU kink by scaling inputs.
	for i := range in.Data() {
		in.Data()[i] *= 2
	}
	numericalGradCheck(t, layer, in, 1e-3)
}

func TestDropoutTrainVsInference(t *testing.T) {
	src, rng := testRand(10)
	layer := NewDropout(0.5, src)
	in := randInput(rng, 10, 20)
	outInfer, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if outInfer.Rows() != in.Rows() || outInfer.Cols() != in.Cols() || !slices.Equal(outInfer.Data(), in.Data()) {
		t.Fatal("dropout must be identity at inference")
	}
	outTrain, err := layer.Forward(in, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range outTrain.Data() {
		if v == 0 {
			zeros++
		}
	}
	if zeros < 50 || zeros > 150 {
		t.Fatalf("dropout zeroed %d/200 entries at rate 0.5", zeros)
	}
	// Backward applies the same mask.
	grad := randInput(rng, 10, 20)
	dx, err := layer.Backward(grad, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range outTrain.Data() {
		if v == 0 && dx.Data()[i] != 0 {
			t.Fatal("gradient leaked through dropped unit")
		}
	}
	if _, err := NewDropout(1.5, src).Forward(in, true); err == nil {
		t.Fatal("want rate error")
	}
}

func TestNetworkLearnsLinearFunction(t *testing.T) {
	src, rng := testRand(11)
	n := 200
	x := randInput(rng, n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 2*x.At(i, 0) - x.At(i, 1) + 0.5*x.At(i, 2)
	}
	net := NewNetwork(NewAdam(0.01), NewDense(3, 16, src), NewReLU(), NewDense(16, 1, src))
	if err := net.Fit(x, y, FitConfig{Epochs: 200, BatchSize: 32, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	preds, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	mse := 0.0
	for i := range y {
		d := preds[i] - y[i]
		mse += d * d
	}
	mse /= float64(n)
	if mse > 0.05 {
		t.Fatalf("network failed to learn linear map: MSE %v", mse)
	}
}

func TestLSTMNetworkLearnsSequenceSum(t *testing.T) {
	src, rng := testRand(12)
	seqLen, n := 5, 300
	x := randInput(rng, n, seqLen)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < seqLen; j++ {
			s += x.At(i, j)
		}
		y[i] = s
	}
	net := NewNetwork(NewAdam(0.02),
		NewLSTM(seqLen, 1, 8, src),
		NewDense(8, 1, src),
	)
	if err := net.Fit(x, y, FitConfig{Epochs: 150, BatchSize: 32, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	preds, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	var sse, sst float64
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)
	for i := range y {
		sse += (preds[i] - y[i]) * (preds[i] - y[i])
		sst += (y[i] - mean) * (y[i] - mean)
	}
	if r2 := 1 - sse/sst; r2 < 0.9 {
		t.Fatalf("LSTM failed to learn sequence sum: R2 %v", r2)
	}
}

// mseLoss is the mean squared error of a 1-column output against y.
func mseLoss(out *matrix.Matrix, y []float64) float64 {
	s := 0.0
	for i := range y {
		d := out.At(i, 0) - y[i]
		s += d * d
	}
	return s / float64(len(y))
}

// TestSGDMomentumAndAdamReduceLoss keeps its name from when it also
// trained with SGD; Adam is the one optimizer left, and its case keeps
// the subtest name "adam".
func TestSGDMomentumAndAdamReduceLoss(t *testing.T) {
	t.Run("adam", func(t *testing.T) {
		src, rng := testRand(13)
		x := randInput(rng, 100, 2)
		y := make([]float64, 100)
		for i := range y {
			y[i] = x.At(i, 0) + x.At(i, 1)
		}
		net := NewNetwork(NewAdam(0.01), NewDense(2, 1, src))
		out, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		before := mseLoss(out, y)
		if err := net.Fit(x, y, FitConfig{Epochs: 50, BatchSize: 25, Seed: 3}); err != nil {
			t.Fatal(err)
		}
		out, err = net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if after := mseLoss(out, y); after >= before/2 {
			t.Fatalf("adam did not reduce loss: %v -> %v", before, after)
		}
	})
}

func TestNetworkErrors(t *testing.T) {
	src, rng := testRand(14)
	net := NewNetwork(nil, NewDense(2, 1, src))
	x := randInput(rng, 3, 2)
	if err := net.Fit(x, []float64{1, 2}, FitConfig{}); err == nil {
		t.Fatal("want length error")
	}
	if err := net.Fit(matrix.New(0, 2), nil, FitConfig{}); err == nil {
		t.Fatal("want empty error")
	}
	// Wrong input width surfaces a shape error.
	if _, err := net.Predict(randInput(rng, 2, 5)); err == nil {
		t.Fatal("want shape error")
	}
	// Multi-column output rejected.
	net2 := NewNetwork(nil, NewDense(2, 3, src))
	if err := net2.Fit(x, []float64{1, 2, 3}, FitConfig{Epochs: 1}); err == nil {
		t.Fatal("want output-cols error")
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	make2 := func() []float64 {
		src, rng := testRand(20)
		x := randInput(rng, 50, 2)
		y := make([]float64, 50)
		for i := range y {
			y[i] = x.At(i, 0) - x.At(i, 1)
		}
		net := NewNetwork(NewAdam(0.01), NewDense(2, 4, src), NewReLU(), NewDense(4, 1, src))
		if err := net.Fit(x, y, FitConfig{Epochs: 10, BatchSize: 16, Seed: 5}); err != nil {
			t.Fatal(err)
		}
		p, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b := make2(), make2()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic for identical seeds")
		}
	}
}

// TestReinitIsANewNetwork: after a fit, Reinit from the constructors'
// generator re-seeded puts every parameter back to the constructors' bits
// (an LSTM's forget-gate bias included) and Adam back to step 0, so a
// second fit predicts what a new network's fit does, bit for bit. A layer
// with parameters that cannot draw them again, or a network without an
// optimizer, is refused.
func TestReinitIsANewNetwork(t *testing.T) {
	_, rng := testRand(21)
	x := randInput(rng, 40, 8)
	y := make([]float64, 40)
	for i := range y {
		y[i] = x.At(i, 0) - x.At(i, 7)
	}
	build := func(gen *matrix.Rand) *Network {
		lstm := NewLSTM(4, 2, 3, gen)
		lstm.ReturnSeq = true
		return NewNetwork(NewAdam(0.01), lstm, NewDropout(0.2, gen),
			NewConv1D(4, 3, 2, 2, 1, true, gen), NewLastTimestep(4, 2), NewDense(2, 1, gen))
	}
	cfg := FitConfig{Epochs: 3, BatchSize: 16, Seed: 4}
	fitPredict := func(net *Network) []float64 {
		t.Helper()
		if err := net.Fit(x, y, cfg); err != nil {
			t.Fatal(err)
		}
		p, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	gen := matrix.NewRand(9)
	reused := build(gen)
	fitPredict(reused)
	gen.Seed(9)
	if err := reused.Reinit(gen); err != nil {
		t.Fatal(err)
	}
	fresh := build(matrix.NewRand(9))
	for i, p := range fresh.Parameters() {
		r := reused.Parameters()[i]
		if !slices.Equal(r.W.Data(), p.W.Data()) || slices.ContainsFunc(r.Grad.Data(), func(g float64) bool { return g != 0 }) {
			t.Fatalf("parameter %d after Reinit: %v (grad %v), a new network's %v", i, r.W.Data(), r.Grad.Data(), p.W.Data())
		}
	}
	got, want := fitPredict(reused), fitPredict(fresh)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("row %d: refit %v, new network %v", i, got[i], want[i])
		}
	}

	foreign := NewNetwork(nil, NewDense(8, 1, gen), foreignLayer{NewDense(1, 1, gen)})
	if err := foreign.Reinit(gen); err == nil {
		t.Fatal("Reinit of a layer that cannot draw its parameters again: no error")
	}
	if err := (&Network{Layers: []Layer{NewDense(8, 1, gen)}}).Reinit(gen); err == nil {
		t.Fatal("Reinit without an optimizer: no error")
	}
}

// foreignLayer is a layer as a caller outside the package would write
// one: it has parameters but no way to draw them again.
type foreignLayer struct{ d *Dense }

func (f foreignLayer) Forward(x *matrix.Matrix, training bool) (*matrix.Matrix, error) {
	return f.d.Forward(x, training)
}

func (f foreignLayer) Backward(grad *matrix.Matrix, wantDX bool) (*matrix.Matrix, error) {
	return f.d.Backward(grad, wantDX)
}

func (f foreignLayer) Parameters() []*Param { return f.d.Parameters() }

func TestLSTMReturnSeqGradients(t *testing.T) {
	src, rng := testRand(15)
	layer := NewLSTM(3, 2, 2, src)
	layer.ReturnSeq = true
	numericalGradCheck(t, layer, randInput(rng, 2, 6), 1e-4)
}

func TestLSTMReturnSeqShape(t *testing.T) {
	src, rng := testRand(16)
	layer := NewLSTM(4, 1, 3, src)
	layer.ReturnSeq = true
	out, err := layer.Forward(randInput(rng, 2, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 || out.Cols() != 12 {
		t.Fatalf("return-seq shape %dx%d, want 2x12", out.Rows(), out.Cols())
	}
	// Last Hidden columns must equal the non-return-seq output.
	layer2 := NewLSTM(4, 1, 3, src)
	layer2.wx.W = layer.wx.W.Clone()
	layer2.wh.W = layer.wh.W.Clone()
	layer2.b.W = layer.b.W.Clone()
	in := randInput(rng, 2, 4)
	seq, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	last, err := layer2.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(seq.At(i, 9+j)-last.At(i, j)) > 1e-12 {
				t.Fatal("return-seq last step differs from final-state output")
			}
		}
	}
}

// tanhOf is matrix.Tanh of one value.
func tanhOf(x float64) float64 {
	out := []float64{x}
	matrix.Tanh(out, out)
	return out[0]
}

// bitsOf is the bits of every element of ms, in order.
func bitsOf(ms ...*matrix.Matrix) []uint64 {
	var out []uint64
	for _, m := range ms {
		for _, v := range m.Data() {
			out = append(out, math.Float64bits(v))
		}
	}
	return out
}

// TestLSTMTanhCacheMatchesRecompute pins the cached tanh(c_t) to the form
// that recomputes it: after every Forward — including one on a smaller
// batch, which recycles the buffers — the cache holds matrix.Tanh of the
// stored cell state bit for bit and the hidden state is built from it, and
// Backward returns the same bits when the cache is overwritten with freshly
// taken tanhs.
func TestLSTMTanhCacheMatchesRecompute(t *testing.T) {
	t.Run("f64", lstmTanhCacheMatchesRecompute)
}

func lstmTanhCacheMatchesRecompute(t *testing.T) {
	src, rng := testRand(11)
	const seq, in, hidden = 5, 3, 4
	l := NewLSTM(seq, in, hidden, src)
	l.ReturnSeq = true
	for _, batch := range []int{6, 2, 7} {
		x := matrix.New(batch, seq*in)
		grad := matrix.New(batch, seq*hidden)
		for _, m := range []*matrix.Matrix{x, grad} {
			for i := range m.Data() {
				m.Data()[i] = 2 * rng.NormFloat64()
			}
		}
		if _, err := l.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		n := batch * hidden
		for ts := 0; ts < seq; ts++ {
			for k := 0; k < n; k++ {
				want := tanhOf(l.cs[(ts+1)*n+k])
				if got := l.tanhC[ts*n+k]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("batch %d t=%d element %d: cached tanh %v, recomputed %v", batch, ts, k, got, want)
				}
				h := l.gates[ts*4*n+3*n+k] * want
				if l.hs[ts].Data()[k] != h {
					t.Fatalf("batch %d t=%d element %d: hidden %v, recomputed %v", batch, ts, k, l.hs[ts].Data()[k], h)
				}
			}
		}
		backward := func() []uint64 {
			for _, p := range l.Parameters() {
				p.zeroGrad()
			}
			dx, err := l.Backward(grad, true)
			if err != nil {
				t.Fatal(err)
			}
			return bitsOf(dx, l.wx.Grad, l.wh.Grad, l.b.Grad)
		}
		cached := backward()
		for k, c := range l.cs[n : (seq+1)*n] {
			l.tanhC[k] = tanhOf(c)
		}
		recomputed := backward()
		for i := range cached {
			if cached[i] != recomputed[i] {
				t.Fatalf("batch %d: backward output %d differs between cached and recomputed tanh", batch, i)
			}
		}
	}
}

// TestGatedActivationCacheMatchesRecompute is the gated block's twin of the
// test above: after every Forward — including one on a smaller batch — the
// kept tanh(convF(x)) and sigmoid(convG(x)) are matrix.Tanh and
// matrix.Sigmoid of the conv outputs bit for bit, and Backward, which takes
// no activation of its own, returns the same bits when they are overwritten
// with freshly taken ones.
func TestGatedActivationCacheMatchesRecompute(t *testing.T) {
	t.Run("f64", gatedActivationCacheMatchesRecompute)
}

func gatedActivationCacheMatchesRecompute(t *testing.T) {
	src, rng := testRand(12)
	const seq, ch = 8, 3
	b := NewGatedResidualBlock(seq, ch, 2, 2, src)
	for _, batch := range []int{5, 2, 6} {
		x := matrix.New(batch, seq*ch)
		grad := matrix.New(batch, seq*ch)
		for _, m := range []*matrix.Matrix{x, grad} {
			for i := range m.Data() {
				m.Data()[i] = 2 * rng.NormFloat64()
			}
		}
		if _, err := b.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		// The convs are deterministic in x: running them again gives the
		// outputs Forward activated and leaves their caches as they were.
		fresh := func(conv *Conv1D, act func(dst, src []float64)) []float64 {
			out, err := conv.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			v := make([]float64, len(out.Data()))
			act(v, out.Data())
			return v
		}
		tanhA, sigG := fresh(b.convF, matrix.Tanh), fresh(b.convG, matrix.Sigmoid)
		for i := range tanhA {
			if math.Float64bits(b.tanhA[i]) != math.Float64bits(tanhA[i]) || math.Float64bits(b.sigG[i]) != math.Float64bits(sigG[i]) {
				t.Fatalf("batch %d element %d: kept tanh %v sigmoid %v, recomputed %v %v", batch, i, b.tanhA[i], b.sigG[i], tanhA[i], sigG[i])
			}
		}
		backward := func() []uint64 {
			for _, p := range b.Parameters() {
				p.zeroGrad()
			}
			dx, err := b.Backward(grad, true)
			if err != nil {
				t.Fatal(err)
			}
			out := bitsOf(dx)
			for _, p := range b.Parameters() {
				out = append(out, bitsOf(p.Grad)...)
			}
			return out
		}
		cached := backward()
		copy(b.tanhA, tanhA)
		copy(b.sigG, sigG)
		recomputed := backward()
		for i := range cached {
			if cached[i] != recomputed[i] {
				t.Fatalf("batch %d: backward output %d differs between kept and recomputed activations", batch, i)
			}
		}
	}
}

// TestBackwardWithoutDXKeepsParamGrads holds the wantDX contract for every
// layer with parameters: asked for no input gradient, Backward returns nil
// and accumulates the same parameter-gradient bits as when it is asked.
func TestBackwardWithoutDXKeepsParamGrads(t *testing.T) {
	src, rng := testRand(13)
	lstm := NewLSTM(5, 3, 4, src)
	lstm.ReturnSeq = true
	for _, c := range []struct {
		name  string
		layer Layer
		in    *matrix.Matrix
	}{
		{"Dense", NewDense(6, 4, src), randInput(rng, 7, 6)},
		{"LSTM", NewLSTM(5, 3, 4, src), randInput(rng, 7, 15)},
		{"LSTM ReturnSeq", lstm, randInput(rng, 7, 15)},
		{"Conv1D", NewConv1D(6, 2, 3, 3, 1, false, src), randInput(rng, 7, 12)},
		{"GatedResidualBlock", NewGatedResidualBlock(6, 2, 2, 2, src), randInput(rng, 7, 12)},
		{"ResidualConvBlock", NewResidualConvBlock(6, 2, 2, 2, src), randInput(rng, 7, 12)},
	} {
		grads := func(wantDX bool) []uint64 {
			out, err := c.layer.Forward(c.in, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range c.layer.Parameters() {
				p.zeroGrad()
			}
			dx, err := c.layer.Backward(out.Clone(), wantDX)
			if err != nil {
				t.Fatal(err)
			}
			if (dx == nil) == wantDX {
				t.Fatalf("%s: wantDX %v returned dx %v", c.name, wantDX, dx)
			}
			var bits []uint64
			for _, p := range c.layer.Parameters() {
				bits = append(bits, bitsOf(p.Grad)...)
			}
			return bits
		}
		with, without := grads(true), grads(false)
		for i := range with {
			if with[i] != without[i] {
				t.Fatalf("%s: parameter gradient %d differs without the input gradient", c.name, i)
			}
		}
	}
}
