package nn

import (
	"math"
	"math/rand"
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
	dIn, err := layer.Backward(out.Clone())
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

func randInput(rng *rand.Rand, rows, cols int) *matrix.Matrix {
	m := matrix.New(rows, cols)
	for i := range m.Data() {
		m.Data()[i] = rng.NormFloat64()
	}
	return m
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	layer := NewDense(5, 3, rng)
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

func TestTanhGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	numericalGradCheck(t, NewTanh(), randInput(rng, 3, 4), 1e-4)
}

func TestConv1DGradientsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	layer := NewConv1D(8, 2, 3, 3, 1, false, rng)
	numericalGradCheck(t, layer, randInput(rng, 2, 16), 1e-4)
}

func TestConv1DGradientsCausalDilated(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	layer := NewConv1D(8, 2, 2, 2, 2, true, rng)
	if layer.OutLen() != 8 {
		t.Fatalf("causal OutLen = %d, want 8", layer.OutLen())
	}
	numericalGradCheck(t, layer, randInput(rng, 2, 16), 1e-4)
}

func TestConv1DCausality(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	layer := NewConv1D(10, 1, 1, 3, 2, true, rng)
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
	dx, err := layer.Backward(grad)
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
	dx, err := layer.Backward(grad)
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
	dx, err := layer.Backward(grad)
	if err != nil {
		t.Fatal(err)
	}
	if dx.At(0, 4) != 7 || dx.At(0, 5) != 8 || dx.At(0, 0) != 0 {
		t.Fatalf("last timestep dx = %v", dx)
	}
}

func TestLSTMGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	layer := NewLSTM(4, 2, 3, rng)
	numericalGradCheck(t, layer, randInput(rng, 2, 8), 1e-4)
}

func TestGatedResidualBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	layer := NewGatedResidualBlock(6, 2, 2, 2, rng)
	numericalGradCheck(t, layer, randInput(rng, 2, 12), 1e-4)
}

func TestResidualConvBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	layer := NewResidualConvBlock(6, 2, 2, 1, rng)
	in := randInput(rng, 2, 12)
	// Keep conv pre-activations away from the ReLU kink by scaling inputs.
	for i := range in.Data() {
		in.Data()[i] *= 2
	}
	numericalGradCheck(t, layer, in, 1e-3)
}

func TestDropoutTrainVsInference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	layer := NewDropout(0.5, rng)
	in := randInput(rng, 10, 20)
	outInfer, err := layer.Forward(in, false)
	if err != nil {
		t.Fatal(err)
	}
	if !outInfer.Equal(in, 0) {
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
	dx, err := layer.Backward(grad)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range outTrain.Data() {
		if v == 0 && dx.Data()[i] != 0 {
			t.Fatal("gradient leaked through dropped unit")
		}
	}
	if _, err := NewDropout(1.5, rng).Forward(in, true); err == nil {
		t.Fatal("want rate error")
	}
}

func TestNetworkLearnsLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	x := randInput(rng, n, 3)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		y[i] = 2*x.At(i, 0) - x.At(i, 1) + 0.5*x.At(i, 2)
	}
	net := NewNetwork(NewAdam(0.01), NewDense(3, 16, rng), NewReLU(), NewDense(16, 1, rng))
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
	rng := rand.New(rand.NewSource(12))
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
		NewLSTM(seqLen, 1, 8, rng),
		NewDense(8, 1, rng),
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

func TestSGDMomentumAndAdamReduceLoss(t *testing.T) {
	for name, opt := range map[string]Optimizer{
		"sgd":          NewSGD(0.05, 0),
		"sgd-momentum": NewSGD(0.05, 0.9),
		"adam":         NewAdam(0.01),
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			x := randInput(rng, 100, 2)
			y := make([]float64, 100)
			for i := range y {
				y[i] = x.At(i, 0) + x.At(i, 1)
			}
			net := NewNetwork(opt, NewDense(2, 1, rng))
			out, err := net.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			before, _ := MSELoss(out, y)
			if err := net.Fit(x, y, FitConfig{Epochs: 50, BatchSize: 25, Seed: 3}); err != nil {
				t.Fatal(err)
			}
			out, err = net.Forward(x, false)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := MSELoss(out, y)
			if after >= before/2 {
				t.Fatalf("%s did not reduce loss: %v -> %v", name, before, after)
			}
		})
	}
}

func TestNetworkErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(nil, NewDense(2, 1, rng))
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
	net2 := NewNetwork(nil, NewDense(2, 3, rng))
	if err := net2.Fit(x, []float64{1, 2, 3}, FitConfig{Epochs: 1}); err == nil {
		t.Fatal("want output-cols error")
	}
}

func TestFitDeterministicForSeed(t *testing.T) {
	make2 := func() []float64 {
		rng := rand.New(rand.NewSource(20))
		x := randInput(rng, 50, 2)
		y := make([]float64, 50)
		for i := range y {
			y[i] = x.At(i, 0) - x.At(i, 1)
		}
		net := NewNetwork(NewAdam(0.01), NewDense(2, 4, rng), NewTanh(), NewDense(4, 1, rng))
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

func TestLSTMReturnSeqGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	layer := NewLSTM(3, 2, 2, rng)
	layer.ReturnSeq = true
	numericalGradCheck(t, layer, randInput(rng, 2, 6), 1e-4)
}

func TestLSTMReturnSeqShape(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	layer := NewLSTM(4, 1, 3, rng)
	layer.ReturnSeq = true
	out, err := layer.Forward(randInput(rng, 2, 4), false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 2 || out.Cols() != 12 {
		t.Fatalf("return-seq shape %dx%d, want 2x12", out.Rows(), out.Cols())
	}
	// Last Hidden columns must equal the non-return-seq output.
	layer2 := NewLSTM(4, 1, 3, rng)
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
func bitsOf[T matrix.Float](ms ...*matrix.Mat[T]) []uint64 {
	var out []uint64
	for _, m := range ms {
		for _, v := range m.Data() {
			out = append(out, math.Float64bits(float64(v)))
		}
	}
	return out
}

// testLSTMTanhCacheMatchesRecompute pins the cached tanh(c_t) to the form
// that recomputes it: after every Forward — including one on a smaller
// batch, which recycles the buffers — the cache holds matrix.Tanh of the
// stored cell state bit for bit and the hidden state is built from it, and
// Backward returns the same bits when the cache is overwritten with freshly
// taken tanhs.
func testLSTMTanhCacheMatchesRecompute[T matrix.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const seq, in, hidden = 5, 3, 4
	l := NewLSTMOf[T](seq, in, hidden, rng)
	l.ReturnSeq = true
	for _, batch := range []int{6, 2, 7} {
		x := matrix.NewOf[T](batch, seq*in)
		grad := matrix.NewOf[T](batch, seq*hidden)
		for _, m := range []*matrix.Mat[T]{x, grad} {
			for i := range m.Data() {
				m.Data()[i] = T(2 * rng.NormFloat64())
			}
		}
		if _, err := l.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < seq; ts++ {
			for i := 0; i < batch; i++ {
				for j := 0; j < hidden; j++ {
					want := tanhOf(float64(l.cs[ts+1].At(i, j)))
					if got := l.tanhC[ts].At(i, j); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("batch %d t=%d (%d,%d): cached tanh %v, recomputed %v", batch, ts, i, j, got, want)
					}
					// The stored output gate is the one Forward multiplied by
					// only when T is float64 (it is rounded to T on store).
					h := T(float64(l.gates[ts].At(i, 3*hidden+j)) * want)
					if _, exact := any(h).(float64); exact && l.hs[ts+1].At(i, j) != h {
						t.Fatalf("batch %d t=%d (%d,%d): hidden %v, recomputed %v", batch, ts, i, j, l.hs[ts+1].At(i, j), h)
					}
				}
			}
		}
		backward := func() []uint64 {
			for _, p := range l.Parameters() {
				p.zeroGrad()
			}
			dx, err := l.Backward(grad)
			if err != nil {
				t.Fatal(err)
			}
			return bitsOf(dx, l.wx.Grad, l.wh.Grad, l.b.Grad)
		}
		cached := backward()
		for ts := 0; ts < seq; ts++ {
			for i, c := range l.cs[ts+1].Data() {
				l.tanhC[ts].Data()[i] = tanhOf(float64(c))
			}
		}
		recomputed := backward()
		for i := range cached {
			if cached[i] != recomputed[i] {
				t.Fatalf("batch %d: backward output %d differs between cached and recomputed tanh", batch, i)
			}
		}
	}
}

func TestLSTMTanhCacheMatchesRecompute(t *testing.T) {
	t.Run("f64", testLSTMTanhCacheMatchesRecompute[float64])
	t.Run("f32", testLSTMTanhCacheMatchesRecompute[float32])
}

// testGatedActivationCacheMatchesRecompute is the gated block's twin of the
// test above: after every Forward — including one on a smaller batch — the
// kept tanh(convF(x)) and sigmoid(convG(x)) are matrix.Tanh and
// matrix.Sigmoid of the conv outputs bit for bit, and Backward, which takes
// no activation of its own, returns the same bits when they are overwritten
// with freshly taken ones.
func testGatedActivationCacheMatchesRecompute[T matrix.Float](t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const seq, ch = 8, 3
	b := NewGatedResidualBlockOf[T](seq, ch, 2, 2, rng)
	for _, batch := range []int{5, 2, 6} {
		x := matrix.NewOf[T](batch, seq*ch)
		grad := matrix.NewOf[T](batch, seq*ch)
		for _, m := range []*matrix.Mat[T]{x, grad} {
			for i := range m.Data() {
				m.Data()[i] = T(2 * rng.NormFloat64())
			}
		}
		if _, err := b.Forward(x, true); err != nil {
			t.Fatal(err)
		}
		// The convs are deterministic in x: running them again gives the
		// outputs Forward activated and leaves their caches as they were.
		fresh := func(conv *Conv1DOf[T], act func(dst, src []float64)) []float64 {
			out, err := conv.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			v := make([]float64, len(out.Data()))
			for i, e := range out.Data() {
				v[i] = float64(e)
			}
			act(v, v)
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
			dx, err := b.Backward(grad)
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

func TestGatedActivationCacheMatchesRecompute(t *testing.T) {
	t.Run("f64", testGatedActivationCacheMatchesRecompute[float64])
	t.Run("f32", testGatedActivationCacheMatchesRecompute[float32])
}
