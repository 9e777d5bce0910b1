package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/delta"
	"coda/internal/matrix"
	"coda/internal/mlmodels"
	"coda/internal/nnmodels"
	"coda/internal/preprocess"
	"coda/internal/tswindow"
)

// Direct probes: public functions of single layers called on the
// workload's own shapes, outside any search or request. Traced pass only.

// probe reports the median, in ms, of reps timed calls of fn after one
// untimed call.
func (b *bench) probe(fn func() error) float64 {
	var samples []float64
	for i := 0; i <= b.sz.ProbeReps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			b.failf(0, "layer probe: %v", err)
			return 0
		}
		if i > 0 {
			samples = append(samples, ms(time.Since(t0)))
		}
	}
	return median(samples)
}

// probeSearchLayers times the kernels and estimators the search workloads
// spend their compute in: ts is search-cold-ts's series, reg is
// search-coop-grid's table (either may be nil).
func (b *bench) probeSearchLayers(ts, reg *dataset.Dataset) {
	if ts != nil {
		b.probeMatrix()
		b.probeTS(ts)
	}
	if reg != nil {
		n := reg.NumSamples()
		train, test := reg.SliceRange(0, n*4/5), reg.SliceRange(n*4/5, n)
		b.set("mlmodels.forest_fit_ms", b.probe(func() error {
			return mlmodels.NewRandomForest(mlmodels.TreeRegression, 30).Fit(train)
		}))
		knn := mlmodels.NewKNN(mlmodels.KNNRegression, 5)
		if err := knn.Fit(train); err != nil {
			b.failf(0, "layer probe: %v", err)
			return
		}
		b.set("mlmodels.knn_predict_ms", b.probe(func() error { _, err := knn.Predict(test); return err }))
		b.set("preprocess.scaler_fit_us", 1000*b.probe(func() error { return preprocess.NewStandardScaler().Fit(train) }))
	}
	b.probeDARRRepo()
}

func (b *bench) probeMatrix() {
	rng := rand.New(rand.NewSource(b.seed))
	a, c := matrix.New(256, 256), matrix.New(256, 256)
	for i := range a.Data() {
		a.Data()[i], c.Data()[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	dst := matrix.New(256, 256)
	b.set("matrix.mul256_f64_ms", b.probe(func() error { _, err := matrix.MulInto(dst, a, c); return err }))
	a32 := matrix.ConvertInto(matrix.NewOf[float32](256, 256), a)
	c32 := matrix.ConvertInto(matrix.NewOf[float32](256, 256), c)
	dst32 := matrix.NewOf[float32](256, 256)
	b.set("matrix.mul256_f32_ms", b.probe(func() error { _, err := matrix.MulInto(dst32, a32, c32); return err }))
}

// probeTS fits each network family once on fold 0 of the series, scaled
// and windowed as its pipelines would.
func (b *bench) probeTS(ts *dataset.Dataset) {
	train := ts.SliceRange(0, ts.NumSamples()/2)
	b.set("preprocess.scaler_fit_us", 1000*b.probe(func() error { return preprocess.NewStandardScaler().Fit(train) }))
	scaler := preprocess.NewStandardScaler()
	if err := scaler.Fit(train); err != nil {
		b.failf(0, "layer probe: %v", err)
		return
	}
	scaled, err := scaler.Transform(train)
	if err != nil {
		b.failf(0, "layer probe: %v", err)
		return
	}
	window := func(t core.Transformer) (*dataset.Dataset, error) {
		if err := t.Fit(scaled); err != nil {
			return nil, err
		}
		return t.Transform(scaled)
	}
	var cascaded *dataset.Dataset
	b.set("tswindow.cascaded_ms", b.probe(func() (err error) {
		cascaded, err = window(tswindow.NewCascadedWindows(8, 1, 0))
		return err
	}))
	flat, err := window(tswindow.NewFlatWindowing(8, 1, 0))
	if err != nil || cascaded == nil {
		b.failf(0, "layer probe: windowing: %v", err)
		return
	}
	fit := func(e core.Estimator, ds *dataset.Dataset) float64 {
		for k, v := range map[string]float64{"epochs": float64(b.sz.TSEpochs), "seed": searchSeed} {
			if err := e.SetParam(k, v); err != nil {
				b.failf(0, "layer probe: %v", err)
				return 0
			}
		}
		return b.probe(func() error { return e.Clone().Fit(ds) })
	}
	b.set("nn.lstm_fit_ms", fit(nnmodels.NewLSTMRegressor(false), cascaded))
	b.set("nn.cnn_fit_ms", fit(nnmodels.NewCNNRegressor(false), cascaded))
	b.set("nn.wavenet_fit_ms", fit(nnmodels.NewWaveNetRegressor(), cascaded))
	b.set("nn.dnn_fit_ms", fit(nnmodels.NewDNNRegressor(false), flat))
}

// probeDARRRepo times 32-record batches directly on a durable Repo.
func (b *bench) probeDARRRepo() {
	repo, err := darr.NewDurableRepo("log:"+filepath.Join(b.dataRoot, "probe-darr"), nil, claimTTL)
	if err != nil {
		b.failf(0, "layer probe: %v", err)
		return
	}
	defer repo.Close()
	batch := 0
	keys := make([]string, 32)
	b.set("darr.repo_putbatch_us.p50", 1000*b.probe(func() error {
		recs := make([]darr.Record, 32)
		for i := range recs {
			keys[i] = fmt.Sprintf("fp|pipeline-%d-%d|eval", batch, i)
			recs[i] = darr.Record{Key: keys[i], DatasetFP: "fp", PipelineSpec: keys[i], EvalSpec: "eval", Metric: "rmse", Score: float64(i), ClientID: "probe"}
		}
		batch++
		return repo.PutBatch(recs)
	}))
	b.set("darr.repo_getbatch_us.p50", 1000*b.probe(func() error {
		if got := repo.GetBatch(keys); len(got) != len(keys) {
			return fmt.Errorf("GetBatch returned %d of %d records", len(got), len(keys))
		}
		return nil
	}))
}

// probeDataLayers times delta.Compute and delta.Apply on base/target pairs
// shaped like the workload's edits (copies: the model is not touched).
func (b *bench) probeDataLayers(objs *objects) {
	rng := rand.New(rand.NewSource(b.seed + 1))
	base := append([]byte(nil), objs.data[objs.keys[0]]...)
	edited := &objects{data: map[string][]byte{"t": append([]byte(nil), base...)}, rng: rng}
	b.set("delta.compute_ms.p50", b.probe(func() error {
		target := edited.edit("t", 4, 0.01)
		if d := delta.Compute(base, target, deltaBlock); len(d.Ops) == 0 {
			return fmt.Errorf("delta.Compute produced no ops")
		}
		copy(base, target)
		return nil
	}))
	target := edited.edit("t", 4, 0.01)
	d := delta.Compute(base, target, deltaBlock)
	b.set("delta.apply_ms.p50", b.probe(func() error {
		out, err := delta.Apply(base, d)
		if err == nil && len(out) != len(target) {
			err = fmt.Errorf("delta.Apply produced %d bytes, want %d", len(out), len(target))
		}
		return err
	}))
}
