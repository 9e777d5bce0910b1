package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/delta"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/replication"
	"coda/internal/scheduler"
	"coda/internal/sim"
	"coda/internal/store"
	"coda/internal/tswindow"
)

// RunF1 reproduces Figure 1: the client / cloud-analytics-server / web-
// service architecture. A client either computes an evaluation locally or
// ships the dataset to a faster cloud server over a WAN link; the
// experiment reports simulated end-to-end latency for both placements
// across dataset sizes, exposing the paper's point that crucial data on a
// weak node plus poor connectivity can favour local computation.
func RunF1(cfg Config) (*Table, error) {
	// The client computes at baseline speed, the cloud server 8x faster,
	// across a 60 ms / 2 MB/s WAN in both directions.
	const (
		cloudSpeed   = 8.0
		wanLatency   = 60 * time.Millisecond
		wanBandwidth = 2e6 // bytes per second
	)
	transfer := func(n int) time.Duration {
		return wanLatency + time.Duration(float64(n)/wanBandwidth*float64(time.Second))
	}
	compute := func(work, speed float64) time.Duration {
		return time.Duration(work / speed * float64(time.Second))
	}

	t := &Table{
		ID:      "F1",
		Title:   "Figure 1 placement: local client vs cloud server vs AI web service (simulated)",
		Columns: []string{"dataset bytes", "compute (baseline s)", "local time", "remote time", "webservice time", "winner"},
	}
	// The AI web service of Figure 1: no local training at all — the
	// client ships feature rows and pays per-call latency on a pre-trained
	// commercial model.
	wsLatency := 120 * time.Millisecond
	sizes := []int{1 << 16, 1 << 20, 1 << 24}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	for _, size := range sizes {
		for _, work := range []float64{0.5, 8} {
			local := compute(work, 1)

			// Ship the dataset, compute on the faster cloud, return results.
			remote := transfer(size) + compute(work, cloudSpeed) + transfer(4096)

			// Web service: ship the feature rows (a tenth of the training
			// set) per batch; the provider's model is already trained.
			webservice := transfer(size/10) + wsLatency + transfer(4096)

			winner := "local"
			best := local
			if remote < best {
				winner, best = "remote", remote
			}
			if webservice < best {
				winner = "webservice"
			}
			t.AddRow(d(size), f(work), local.String(), remote.String(), webservice.String(), winner)
		}
	}
	t.AddNote("cloud is 8x faster; WAN is 60ms / 2MB/s; the web service skips training entirely — it wins whenever any local/remote training is needed, at the price of an external dependency")
	return t, nil
}

// RunF2 reproduces Figure 2: N clients analyzing the same dataset with and
// without the DARR, measuring total computations, redundancy factor, the
// later clients' cache hits and — each client being one worker — how the
// fleet divides the work: the largest share any client computed and the
// fleet's wall time against one client's.
func RunF2(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{
		Samples: cfg.pick(300, 100), Features: 5, Informative: 3, Noise: 2,
	}, rng)
	if err != nil {
		return nil, err
	}
	// The forest makes a search long against the clients' stagger, so that
	// later clients arrive while there is still work to divide.
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(
			preprocess.NewStandardScaler(),
			preprocess.NewMinMaxScaler(),
			preprocess.NewRobustScaler(),
			preprocess.NewNoOp(),
		)
		g.AddRegressionModels(
			mlmodels.NewLinearRegression(),
			mlmodels.NewKNN(mlmodels.KNNRegression, 5),
			mlmodels.NewDecisionTree(mlmodels.TreeRegression),
			mlmodels.NewRandomForest(mlmodels.TreeRegression, 20),
		)
		return g
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		return nil, err
	}
	opts := core.SearchOptions{
		Splitter:    crossval.KFold{K: 5, Shuffle: true},
		Scorer:      scorer,
		Seed:        cfg.Seed,
		Parallelism: 1, // a client is one worker: more clients are more cores, up to the machine's
		ParamGrid:   map[string][]float64{"randomforest__n_trees": {10, 20, 30}},
	}

	t := &Table{
		ID:      "F2",
		Title:   "Figure 2 DARR cooperation: total work and its division vs client count",
		Columns: []string{"clients", "cooperate", "unique units", "total computed", "redundancy", "cache hits", "largest share", "wall / 1 client"},
	}
	clientCounts := []int{1, 2, 4, 8}
	if cfg.Quick {
		clientCounts = []int{1, 2, 4}
	}
	var oneClient [2]time.Duration // the single client's wall, by cooperate
	for _, n := range clientCounts {
		for i, coop := range []bool{false, true} {
			repo := darr.NewRepo(nil, time.Minute)
			res, err := scheduler.RunFleet(context.Background(), build, ds, repo, scheduler.FleetOptions{
				Clients:   n,
				Search:    opts,
				Cooperate: coop,
				Stagger:   5 * time.Millisecond,
			})
			if err != nil {
				return nil, err
			}
			hits, most := 0, 0
			for _, r := range res.Reports {
				hits += r.CacheHits
				most = max(most, r.Computed)
			}
			if n == 1 {
				oneClient[i] = res.Wall
			}
			t.AddRow(d(n), fmt.Sprintf("%t", coop), d(res.UniqueUnits), d(res.TotalComputed),
				f(res.RedundancyFactor()), d(hits),
				f(float64(most)/float64(res.TotalComputed)), f(res.Wall.Seconds()/oneClient[i].Seconds()))
		}
	}
	t.AddNote("without the DARR total work grows linearly in clients; with it the fleet computes each unit ~once")
	t.AddNote("largest share: the most units one client computed over the fleet's total (1/clients = an even split); wall: the slowest client's, stagger included, on %d CPUs", runtime.GOMAXPROCS(0))
	return t, nil
}

// RunS1 reproduces the Section III delta-encoding claim: delta size versus
// full object size across edit fractions and object sizes, with the
// store's delta-vs-full decision.
func RunS1(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := &Table{
		ID:      "S1",
		Title:   "Sec III delta encoding: wire bytes vs edit fraction",
		Columns: []string{"object bytes", "edit fraction", "delta bytes", "delta/full", "store sends"},
	}
	sizes := []int{1 << 14, 1 << 17}
	if !cfg.Quick {
		sizes = append(sizes, 1<<20)
	}
	for _, size := range sizes {
		base := make([]byte, size)
		rng.Read(base)
		for _, frac := range []float64{0.001, 0.01, 0.1, 0.5} {
			target := append([]byte(nil), base...)
			edits := int(float64(size) * frac)
			if edits < 1 {
				edits = 1
			}
			for e := 0; e < edits; e++ {
				target[rng.Intn(size)] ^= 0xff
			}
			dlt := delta.Compute(base, target, 0)
			// What would the home store do?
			var hs store.ObjectStore = store.NewHomeStore(store.Options{})
			if _, err := hs.Put("o", base); err != nil {
				return nil, err
			}
			if _, err := hs.Put("o", target); err != nil {
				return nil, err
			}
			reply, err := hs.Get("o", 1)
			if err != nil {
				return nil, err
			}
			sends := "full"
			if reply.IsDelta() {
				sends = "delta"
			}
			t.AddRow(d(size), f(frac), d(dlt.WireSize()), f(float64(dlt.WireSize())/float64(size)), sends)
		}
	}
	t.AddNote("crossover: random byte edits scatter across blocks, so the delta stops paying near ~1 edit per block (64B blocks -> ~1.5%% edit fraction)")
	return t, nil
}

// RunS2 reproduces Section III's propagation options: pull, push-value,
// push-delta, push-notify under an update stream, reporting bytes on the
// wire, messages and staleness (updates the client did not have when it
// needed the data).
func RunS2(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	objectSize := cfg.pick(1<<16, 1<<14)
	updates := cfg.pick(50, 20)
	readEvery := 5 // client reads the data after every 5th update

	t := &Table{
		ID:      "S2",
		Title:   "Sec III propagation modes under an update stream",
		Columns: []string{"mode", "updates", "wire bytes", "messages", "stale reads"},
	}

	// Retain enough versions that a client five updates behind can still
	// be served a delta.
	storeOpts := store.Options{Retain: 8}

	runPull := func() error {
		var hs store.ObjectStore = store.NewHomeStore(storeOpts)
		rep := store.NewReplica()
		data := make([]byte, objectSize)
		rng.Read(data)
		if _, err := hs.Put("o", data); err != nil {
			return err
		}
		if err := rep.Pull(hs, "o"); err != nil {
			return err
		}
		msgs := 1
		stale := 0
		for u := 1; u <= updates; u++ {
			data = append([]byte(nil), data...)
			data[rng.Intn(len(data))] ^= 0xff
			if _, err := hs.Put("o", data); err != nil {
				return err
			}
			if u%readEvery == 0 {
				// Client decides it needs fresh data: one pull round trip.
				if err := rep.Pull(hs, "o"); err != nil {
					return err
				}
				msgs++
			}
		}
		// Pull clients are stale between pulls by design.
		stale = updates - updates/readEvery
		t.AddRow("pull (every "+d(readEvery)+" updates)", d(updates), d(int(rep.BytesReceived())), d(msgs), d(stale))
		return nil
	}
	if err := runPull(); err != nil {
		return nil, err
	}

	for _, mode := range []replication.PushMode{replication.PushValue, replication.PushDelta, replication.PushNotify} {
		var hs store.ObjectStore = store.NewHomeStore(storeOpts)
		mgr := replication.NewManager(hs, nil)
		rep := store.NewReplica()
		var lease *replication.Lease
		sub := replication.SubscriberFunc(func(u replication.Update) {
			if u.Notify {
				return // client fetches lazily; see below
			}
			if err := rep.ApplyReply(u.Reply); err == nil && lease != nil {
				lease.AckVersion(u.Version)
			}
		})
		var err error
		lease, err = mgr.Subscribe("o", "client", mode, time.Hour, sub)
		if err != nil {
			return nil, err
		}
		data := make([]byte, objectSize)
		rng.Read(data)
		if _, err := mgr.Publish("o", data); err != nil {
			return nil, err
		}
		stale := 0
		fetchBytes := int64(0)
		for u := 1; u <= updates; u++ {
			data = append([]byte(nil), data...)
			data[rng.Intn(len(data))] ^= 0xff
			version, err := mgr.Publish("o", data)
			if err != nil {
				return nil, err
			}
			if mode == replication.PushNotify && u%readEvery == 0 {
				// Notified client fetches only when it needs the data.
				before := rep.BytesReceived()
				if err := rep.Pull(hs, "o"); err != nil {
					return nil, err
				}
				fetchBytes += rep.BytesReceived() - before
				lease.AckVersion(version)
			}
			if rep.VersionOf("o") != version {
				stale++
			}
		}
		total := lease.BytesPushed() + fetchBytes
		t.AddRow(mode.String(), d(updates), d(int(total)), d(lease.Deliveries()), d(stale))
	}
	t.AddNote("push-value: always fresh, max bytes; push-delta: fresh at delta cost; push-notify: tiny messages, fetch on demand; pull: cheapest but stale between pulls")
	return t, nil
}

// RunS3 reproduces Section III's change-detection triggers: a drifting
// series streams in while each trigger policy decides when to retrain a
// forecaster; the experiment reports retrain count versus prediction error
// (model staleness).
func RunS3(cfg Config) (*Table, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	steps := cfg.pick(1500, 600)
	warmup := 200
	if cfg.Quick {
		warmup = 150
	}
	// Mean-shift regime: the operating level jumps abruptly, so a model
	// fitted before a shift carries a stale intercept until retrained.
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: steps, Vars: 1, Regime: sim.RegimeMeanShift, Noise: 0.5}, rng)
	if err != nil {
		return nil, err
	}
	view, err := tswindow.NewTSAsIs(1, 0).Transform(series)
	if err != nil {
		return nil, err
	}

	type policy struct {
		name    string
		trigger replication.Trigger
	}
	const rowBytes = 8
	policies := []policy{
		{"never retrain", replication.FuncTrigger{Label: "never", Fn: func(replication.UpdateStats) bool { return false }}},
		{"count>25", replication.CountTrigger{N: 25}},
		{"count>100", replication.CountTrigger{N: 100}},
		{"bytes>400", replication.BytesTrigger{N: 400}},                                // == 50 rows
		{"app: level shift>2", replication.FuncTrigger{Label: "level-shift", Fn: nil}}, // filled below
	}

	t := &Table{
		ID:      "S3",
		Title:   "Sec III retrain triggers under drift: recomputes vs staleness",
		Columns: []string{"trigger", "retrains", "mean abs error", "vs never-retrain"},
	}
	var neverErr float64
	for _, p := range policies {
		// The app-specific trigger closes over the stream state.
		lastLevel := 0.0
		curLevel := func() float64 { return 0 }
		if p.name == "app: level shift>2" {
			p.trigger = replication.FuncTrigger{Label: "level-shift", Fn: func(replication.UpdateStats) bool {
				return absf(curLevel()-lastLevel) > 2
			}}
		}
		mon := replication.NewMonitor(p.trigger)

		train := view.SliceRange(0, warmup)
		model := mlmodels.NewARModel(3, 0)
		if err := model.Fit(train); err != nil {
			return nil, err
		}
		trainedAt := warmup

		var absErrSum float64
		var count int
		for i := warmup; i < view.NumSamples(); i++ {
			// Predict the next value using the trained model on the
			// window ending at i.
			window := view.SliceRange(trainedAt-warmup, i+1)
			preds, err := model.Predict(window)
			if err != nil {
				return nil, err
			}
			pred := preds[len(preds)-1]
			truth := view.Y[i]
			absErrSum += absf(pred - truth)
			count++

			mon.RecordUpdate(rowBytes)
			level := view.Y[i]
			curLevel = func() float64 { return level }
			if mon.Check() {
				train := view.SliceRange(i+1-warmup, i+1)
				model = mlmodels.NewARModel(3, 0)
				if err := model.Fit(train); err != nil {
					return nil, err
				}
				trainedAt = i + 1
				lastLevel = level
				mon.Reset()
			}
		}
		mae := absErrSum / float64(count)
		if p.name == "never retrain" {
			neverErr = mae
		}
		rel := "-"
		if neverErr > 0 {
			rel = f(mae / neverErr)
		}
		t.AddRow(p.name, d(mon.Recomputes()), f(mae), rel)
	}
	t.AddNote("more frequent retraining tracks the drifting level at higher compute cost; the app-specific trigger retrains only on real level shifts")
	return t, nil
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
