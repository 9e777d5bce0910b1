package lifecycle_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/lifecycle"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/replication"
	"coda/internal/sim"
	"coda/internal/store"
	"coda/internal/tswindow"
)

// buildARPipeline returns a fresh scaling + TS-as-is + AR(3) pipeline.
func buildARPipeline(t *testing.T) func() *core.Pipeline {
	t.Helper()
	return func() *core.Pipeline {
		g := core.NewGraph()
		g.AddTransformerStage("view", tswindow.NewTSAsIs(1, 0))
		g.AddEstimatorStage("model", mlmodels.NewARModel(3, 0))
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPipeline(g.Paths()[0])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := lifecycle.NewManager(nil, replication.CountTrigger{N: 1}); err == nil {
		t.Fatal("want nil-builder error")
	}
	if _, err := lifecycle.NewManager(func() *core.Pipeline { return nil }, nil); err == nil {
		t.Fatal("want nil-trigger error")
	}
	m, err := lifecycle.NewManager(func() *core.Pipeline { return nil }, replication.CountTrigger{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Predict(&dataset.Dataset{}); err == nil {
		t.Fatal("want not-trained error")
	}
	if _, err := m.Observe(1, nil); err == nil {
		t.Fatal("want observe-before-train error")
	}
}

func TestManagerRetrainsOnTrigger(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 400, Vars: 1, Regime: sim.RegimeMeanShift, Noise: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	m, err := lifecycle.NewManager(buildARPipeline(t), replication.CountTrigger{N: 24})
	if err != nil {
		t.Fatal(err)
	}
	warm := series.SliceRange(0, 100)
	if err := m.Train(warm); err != nil {
		t.Fatal(err)
	}
	if m.Retrains() != 0 {
		t.Fatal("initial train must not count as retrain")
	}
	// Stream the rest one step at a time, retraining on a sliding window.
	retrained := 0
	for tStep := 100; tStep < 300; tStep++ {
		window := series.SliceRange(tStep-99, tStep+1)
		did, err := m.Observe(8, window)
		if err != nil {
			t.Fatal(err)
		}
		if did {
			retrained++
		}
	}
	// 200 updates with trigger count>24 => retrain every 25 updates => 8.
	if retrained != 8 || m.Retrains() != 8 {
		t.Fatalf("retrained %d times (counter %d), want 8", retrained, m.Retrains())
	}
	// The 200th update triggered the 8th retrain, so stats reset; one more
	// observation should accumulate without retraining.
	if did, err := m.Observe(8, series.SliceRange(200, 300)); err != nil || did {
		t.Fatalf("observe after retrain: did=%v err=%v", did, err)
	}
	if m.PendingUpdates().Count != 1 {
		t.Fatalf("pending count %d, want 1", m.PendingUpdates().Count)
	}
	// Predictions come from the freshest model.
	preds, err := m.Predict(series.SliceRange(250, 300))
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 49 { // TS-as-is drops the last step (horizon 1)
		t.Fatalf("predictions %d", len(preds))
	}
}

// TestEndToEndLifecycleOverDataTier runs the full Figure 1 story in one
// process: a home data store publishes CSV updates over a push-delta lease,
// a client replica stays in sync, and the lifecycle manager retrains from
// the replica when the bytes trigger fires — keeping accuracy on drifting
// data far ahead of a never-retrained model.
func TestEndToEndLifecycleOverDataTier(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 700, Vars: 1, Regime: sim.RegimeMeanShift, Noise: 0.5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	const warmup = 150

	hs := store.NewHomeStore(store.Options{Retain: 4, BlockSize: 64})
	mgr := replication.NewManager(hs, nil)
	t.Cleanup(mgr.Close)
	replica := store.NewReplica()

	encode := func(end int) []byte {
		var buf bytes.Buffer
		if err := series.SliceRange(0, end).WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	decode := func() *dataset.Dataset {
		raw, ok := replica.Data("train")
		if !ok {
			t.Fatal("replica empty")
		}
		ds, err := dataset.ReadCSV(bytes.NewReader(raw), "")
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}

	var lease *replication.Lease
	sub := replication.SubscriberFunc(func(u replication.Update) {
		if err := replica.ApplyReply(u.Reply); err != nil {
			t.Errorf("replica apply: %v", err)
			return
		}
		lease.AckVersion(u.Version)
	})
	lease, err = mgr.Subscribe("train", "edge-node", replication.PushDelta, time.Hour, sub)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := mgr.Publish("train", encode(warmup)); err != nil {
		t.Fatal(err)
	}
	mgr.Flush()

	lm, err := lifecycle.NewManager(buildARPipeline(t), replication.BytesTrigger{N: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := lm.Train(decode()); err != nil {
		t.Fatal(err)
	}
	// A frozen model for comparison.
	frozen := buildARPipeline(t)()
	if err := frozen.Fit(decode()); err != nil {
		t.Fatal(err)
	}

	var managedErr, frozenErr float64
	evals := 0
	for tStep := warmup; tStep < series.NumSamples()-1; tStep++ {
		// Publish the new observation; the lease pushes a delta.
		if _, err := mgr.Publish("train", encode(tStep+1)); err != nil {
			t.Fatal(err)
		}
		mgr.Flush()
		current := decode()
		// Both models forecast the next step from the recent window.
		window := current.SliceRange(current.NumSamples()-50, current.NumSamples())
		mp, err := lm.Predict(window)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := frozen.Predict(window)
		if err != nil {
			t.Fatal(err)
		}
		truth := series.X.At(tStep, 0) // horizon-1 target of the window's second-to-last row
		managedErr += abs(mp[len(mp)-1] - truth)
		frozenErr += abs(fp[len(fp)-1] - truth)
		evals++

		if _, err := lm.Observe(16, current.SliceRange(current.NumSamples()-150, current.NumSamples())); err != nil {
			t.Fatal(err)
		}
	}
	if lm.Retrains() == 0 {
		t.Fatal("manager never retrained under drift")
	}
	managedMAE := managedErr / float64(evals)
	frozenMAE := frozenErr / float64(evals)
	if managedMAE >= frozenMAE*0.6 {
		t.Fatalf("managed MAE %v should clearly beat frozen %v on drifting data", managedMAE, frozenMAE)
	}
	// The delta lease kept sync cheap: far less than re-sending the CSV
	// every update.
	full := int64(len(encode(series.NumSamples()-1))) * int64(evals)
	if lease.BytesPushed() >= full/4 {
		t.Fatalf("push-delta moved %d bytes; full refreshes would be %d", lease.BytesPushed(), full)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestManagerConcurrentPredictDuringRetrain exercises the RW locking:
// predictions keep flowing while another goroutine retrains.
func TestManagerConcurrentPredictDuringRetrain(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 200, Features: 3, Informative: 3, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func() *core.Pipeline {
		g := core.NewGraph()
		g.AddTransformerStage("scale", preprocess.NewStandardScaler())
		g.AddEstimatorStage("model", mlmodels.NewLinearRegression())
		if err := g.Finalize(); err != nil {
			t.Fatal(err)
		}
		p, err := core.NewPipeline(g.Paths()[0])
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	m, err := lifecycle.NewManager(build, replication.CountTrigger{N: 0}) // retrain on every observe
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train(ds); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			if _, err := m.Observe(1, ds); err != nil {
				t.Errorf("observe: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		preds, err := m.Predict(ds)
		if err != nil {
			t.Fatalf("predict during retrain: %v", err)
		}
		if len(preds) != ds.NumSamples() {
			t.Fatal("wrong prediction count")
		}
	}
	<-done
	if m.Retrains() != 30 {
		t.Fatalf("retrains %d, want 30", m.Retrains())
	}
	// Model quality is preserved through retrains.
	preds, err := m.Predict(ds)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := metrics.R2(ds.Y, preds)
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Fatalf("post-retrain R2 %v", r2)
	}
}
