package core_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/nnmodels"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/preprocess"
	"coda/internal/tsgraph"
	"coda/internal/tswindow"
)

// keyRecorder is a ResultStore holding a published score for every key: a
// search against it is all hits, and it keeps the keys it was asked for.
type keyRecorder struct{ keys []string }

func (r *keyRecorder) LookupBatch(_ context.Context, keys []string) (map[string]float64, error) {
	out := make(map[string]float64, len(keys))
	for _, k := range keys {
		r.keys = append(r.keys, k)
		out[k] = 1
	}
	return out, nil
}

func (r *keyRecorder) ClaimBatch(context.Context, []string) (map[string]bool, error) {
	return nil, errors.New("keyRecorder: every key is published")
}

func (r *keyRecorder) Publish(context.Context, string, float64, string) error { return nil }
func (r *keyRecorder) Release(context.Context, string) error                  { return nil }

// coopGridGraph is coda-client's regression graph: 4 scalers x 3 selector
// chains x 4 models.
func coopGridGraph(t *testing.T) *core.Graph {
	t.Helper()
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(), preprocess.NewStandardScaler(), preprocess.NewNoOp())
	g.AddFeatureSelectors(
		[]core.Transformer{preprocess.NewCovariance(), preprocess.NewPCA(3)},
		[]core.Transformer{preprocess.NewSelectKBest(3)},
		[]core.Transformer{preprocess.NewNoOp()},
	)
	g.AddRegressionModels(
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 30),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
		mlmodels.NewLinearRegression(),
	)
	if err := g.Finalize(); err != nil {
		t.Fatal(err)
	}
	return g
}

// keyCase is a graph, a grid and the data and evaluation its units are
// keyed under.
type keyCase struct {
	name  string
	graph func(*testing.T) *core.Graph
	grid  map[string][]float64
	ds    func(*testing.T) *dataset.Dataset
	opts  core.SearchOptions
	units int
}

func keyCases() []keyCase {
	rmse, _ := metrics.ScorerByName("rmse")
	return []keyCase{
		{
			name:  "coop-grid",
			graph: coopGridGraph,
			grid: map[string][]float64{
				"randomforest__n_trees":   {10, 20, 30},
				"randomforest__max_depth": {4, 8},
				"decisiontree__max_depth": {3, 5, 8},
			},
			ds: func(t *testing.T) *dataset.Dataset {
				ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 400, Features: 6, Informative: 3, Noise: 3}, rand.New(rand.NewSource(3)))
				if err != nil {
					t.Fatal(err)
				}
				return ds
			},
			opts:  core.SearchOptions{Splitter: crossval.KFold{K: 5, Shuffle: true}, Scorer: rmse, Seed: 1},
			units: 132,
		},
		{
			// A grid key on a chain node: the value reaches the chain's first
			// component that accepts it.
			name:  "fig3",
			graph: fig3Graph,
			grid:  map[string][]float64{"covariance+pca__n_components": {2, 3}, "knn__k": {3, 7}},
			ds:    func(t *testing.T) *dataset.Dataset { return regDS(t, 90) },
			opts:  core.SearchOptions{Splitter: crossval.KFold{K: 3, Shuffle: true}, Scorer: rmse, Seed: 5},
			units: 64,
		},
		{
			name: "fig11",
			graph: func(t *testing.T) *core.Graph {
				g, err := tsgraph.New(tsgraph.Config{History: 5, Horizon: 1, Target: 3, Epochs: 2, Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				return g
			},
			grid:  map[string][]float64{"cascadedwindows__history": {4, 5}},
			ds:    func(*testing.T) *dataset.Dataset { return fusionSeries(120) },
			opts:  core.SearchOptions{Splitter: crossval.SlidingSplit{K: 2, TrainSize: 60, TestSize: 30, Buffer: 1}, Scorer: rmse, Seed: 5},
			units: 72,
		},
	}
}

// TestUnitKeysPinned: the DARR keys a search asks for are the contract
// between builds — a DARR filled by an earlier build must still hit. Each
// digest is the SHA-256 of a search's keys, sorted and newline-joined,
// recorded before units were planned rather than instantiated. The keys'
// darr.KeyDigest values are the wire contract of the batch routes: each
// wantWire is the SHA-256 of the sorted keys' digests, concatenated,
// computed outside Go with Python's hashlib.
func TestUnitKeysPinned(t *testing.T) {
	want := map[string]string{
		"coop-grid": "045ccc535d01e6468a8372bb5f3f2088181b625addb4bacf89a35438c280d4ac",
		"fig3":      "1096fa011f822d67b043ba5faca93f685f70b797a63cfd32a7ec40f249bbf49a",
		"fig11":     "ad065c4ff91f12ec39b8f821ac9e27f9fc7d87af1c634a3404a436ef5e9b0b41",
	}
	wantWire := map[string]string{
		"coop-grid": "a9650cb869f8dede7996db32299cef6f32eda7c0cf5d0ba6fd5facfa88ad0ece",
		"fig3":      "65d1c7035d6ba9a43ab37f3248c8989c730666ac01de1e7841ec9b8dcbe6bb99",
		"fig11":     "4fbc7428057192895fa6688328eab7512c7eb24b766f6aec0408f4efa453d15e",
	}
	for _, c := range keyCases() {
		t.Run(c.name, func(t *testing.T) {
			st := &keyRecorder{}
			opts := c.opts
			opts.ParamGrid, opts.Store, opts.Parallelism = c.grid, st, 1
			res, err := core.Search(context.Background(), c.graph(t), c.ds(t), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(st.keys) != c.units || res.CacheHits != c.units {
				t.Fatalf("%d keys looked up, %d hits; want %d units", len(st.keys), res.CacheHits, c.units)
			}
			slices.Sort(st.keys)
			sum := sha256.Sum256([]byte(strings.Join(st.keys, "\n")))
			if got := hex.EncodeToString(sum[:]); got != want[c.name] {
				t.Errorf("keys digest %s, want %s", got, want[c.name])
			}
			var wire []byte
			for _, k := range st.keys {
				d := darr.KeyDigest(k)
				wire = append(wire, d[:]...)
			}
			sum = sha256.Sum256(wire)
			if got := hex.EncodeToString(sum[:]); got != wantWire[c.name] {
				t.Errorf("wire digests' digest %s, want %s", got, wantWire[c.name])
			}
		})
	}
}

var update = flag.Bool("update", false, "rewrite testdata/coop_grid_scores.golden from this build")

// TestCoopGridScoresPinned holds every fold score of keyCases' coop-grid
// search to the bits in testdata, in TestFig11ScoresPinned's format: each
// unit's spec and the hex bits of each fold score, one unit per line in
// unit order. A scaler, selector or model change that moves any score bit
// fails here, naming the unit.
//
// amd64 only: arm64 still fuses products on some score paths (ROADMAP 7a),
// so its bits differ in the last place.
func TestCoopGridScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fold scores are pinned on amd64 only until every score path is FMA-free on arm64")
	}
	c := keyCases()[0]
	opts := c.opts
	opts.ParamGrid, opts.Parallelism = c.grid, 1
	res, err := core.Search(context.Background(), c.graph(t), c.ds(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != c.units {
		t.Fatalf("%d units, want %d", len(res.Units), c.units)
	}
	got := make([]string, len(res.Units))
	for i, u := range res.Units {
		if u.Err != "" {
			t.Fatalf("unit %s failed: %s", u.Spec, u.Err)
		}
		var b strings.Builder
		b.WriteString(u.Spec)
		for _, s := range u.Scores {
			fmt.Fprintf(&b, " %016x", math.Float64bits(s))
		}
		got[i] = b.String()
	}
	path := filepath.Join("testdata", "coop_grid_scores.golden")
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update on a build whose scores are right)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d units, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// TestComponentSpecsTellVariantsApart: a spec is what the prefix cache and
// the DARR key a component's output by, so every variant the zoo's
// constructors make renders a spec of its own. A clone renders the same
// spec, and setting each parameter to its own value on a clone is accepted
// and leaves the spec as it was.
func TestComponentSpecsTellVariantsApart(t *testing.T) {
	zoo := []core.Component{
		preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewRobustScaler(),
		preprocess.NewNoOp(), preprocess.NewCovariance(), preprocess.NewPCA(3), preprocess.NewSelectKBest(3),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression), mlmodels.NewDecisionTree(mlmodels.TreeClassification),
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 30), mlmodels.NewRandomForest(mlmodels.TreeClassification, 30),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5), mlmodels.NewKNN(mlmodels.KNNClassification, 5),
		mlmodels.NewLinearRegression(), &mlmodels.LinearRegression{Alpha: 1},
		mlmodels.NewLogisticRegression(), mlmodels.NewKMeans(3), mlmodels.NewZeroModel(0), mlmodels.NewARModel(3, 0),
		tswindow.NewCascadedWindows(8, 1, 0), tswindow.NewFlatWindowing(8, 1, 0),
		tswindow.NewTSAsIID(1, 0), tswindow.NewTSAsIs(1, 0),
		nnmodels.NewDNNRegressor(false), nnmodels.NewDNNRegressor(true),
		nnmodels.NewLSTMRegressor(false), nnmodels.NewLSTMRegressor(true),
		nnmodels.NewCNNRegressor(false), nnmodels.NewCNNRegressor(true),
		nnmodels.NewWaveNetRegressor(), nnmodels.NewSeriesNetRegressor(),
	}
	seen := make(map[string]int, len(zoo))
	for i, c := range zoo {
		spec := core.ComponentSpec(c)
		if j, ok := seen[spec]; ok {
			t.Errorf("components %d and %d share the spec %s", j, i, spec)
		}
		seen[spec] = i
		var cp core.Component
		switch c := c.(type) {
		case core.Transformer:
			cp = c.Clone()
		case core.Estimator:
			cp = c.Clone()
		default:
			t.Fatalf("%s is neither a Transformer nor an Estimator", spec)
		}
		if got := core.ComponentSpec(cp); got != spec {
			t.Errorf("clone of %s renders %s", spec, got)
		}
		for k, v := range cp.Params() {
			if err := cp.SetParam(k, v); err != nil {
				t.Errorf("%s: setting %s to its own value %v: %v", spec, k, v, err)
			}
		}
		if got := core.ComponentSpec(cp); got != spec {
			t.Errorf("%s after setting every parameter to its own value renders %s", spec, got)
		}
	}
}

// TestPlannedSpecIsBuiltSpec: a planned unit's spec is, byte for byte, the
// Spec of the pipeline it builds, and its key is UnitKey over that spec —
// on every unit of the three keyed graphs, chain-node grid key included.
func TestPlannedSpecIsBuiltSpec(t *testing.T) {
	for _, c := range keyCases() {
		t.Run(c.name, func(t *testing.T) {
			units, err := core.PlanUnits(c.graph(t), c.grid, "fp", "eval")
			if err != nil {
				t.Fatal(err)
			}
			if len(units) != c.units {
				t.Fatalf("%d units planned, want %d", len(units), c.units)
			}
			for i, u := range units {
				if u.Spec != u.BuiltSpec || u.Key != core.UnitKey("fp", u.BuiltSpec, "eval") {
					t.Fatalf("unit %d: planned spec %q key %q, built spec %q", i, u.Spec, u.Key, u.BuiltSpec)
				}
			}
		})
	}
}

// TestPlanRejectsBadGridValue: a grid value a component refuses fails the
// search before anything runs, naming the key and the value. mlmodels
// refuses a count that is not a whole number of at least 1 (0 for
// max_depth): Fit would train its default, or the truncated value, under a
// spec that records the value given.
func TestPlanRejectsBadGridValue(t *testing.T) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3),
		mlmodels.NewRandomForest(mlmodels.TreeRegression, 3), mlmodels.NewDecisionTree(mlmodels.TreeRegression))
	scorer, _ := metrics.ScorerByName("rmse")
	for _, c := range []struct {
		key string
		v   float64
	}{
		{"knn__bogus", 1}, {"knn__k", 0}, {"knn__k", 2.5},
		{"randomforest__n_trees", 0}, {"randomforest__n_trees", -3}, {"randomforest__n_trees", 2.5},
		{"randomforest__max_depth", -1}, {"randomforest__min_leaf", 0}, {"randomforest__min_leaf", math.NaN()},
		{"decisiontree__max_depth", 1.5}, {"decisiontree__min_leaf", 0},
	} {
		_, err := core.Search(context.Background(), g, regDS(t, 40), core.SearchOptions{
			Splitter: crossval.KFold{K: 2}, Scorer: scorer,
			ParamGrid: map[string][]float64{c.key: {c.v}},
		})
		want := fmt.Sprintf("applying grid %s=%s", c.key, strconv.FormatFloat(c.v, 'g', -1, 64))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("search with grid %s=%v: err %v, want one containing %q", c.key, c.v, err, want)
		}
	}
}

// TestPlanRejectsMisspeltGridKey: a grid key that is not node__param, or
// whose node is on no path, fails the search naming the key, before any
// store is asked; a key whose node is on only some paths applies to those.
func TestPlanRejectsMisspeltGridKey(t *testing.T) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler())
	g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3))
	scorer, _ := metrics.ScorerByName("rmse")
	for key, want := range map[string]string{
		"knn_k":                 `grid key "knn_k" is not of the form node__param`,
		"randomforest__n_trees": `grid key "randomforest__n_trees" names no node on any path`,
	} {
		st := &keyRecorder{}
		_, err := core.Search(context.Background(), g, regDS(t, 40), core.SearchOptions{
			Splitter: crossval.KFold{K: 2}, Scorer: scorer, Store: st,
			ParamGrid: map[string][]float64{"knn__k": {3, 5}, key: {1}},
		})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("grid key %s: err %v, want it to contain %q", key, err, want)
		}
		if len(st.keys) != 0 {
			t.Errorf("grid key %s: %d keys looked up, want none", key, len(st.keys))
		}
	}
	res, err := core.Search(context.Background(), g, regDS(t, 40), core.SearchOptions{
		Splitter: crossval.KFold{K: 2}, Scorer: scorer,
		ParamGrid: map[string][]float64{"knn__k": {3, 5}},
	})
	if err != nil || len(res.Units) != 3 {
		t.Fatalf("knn__k on one of two paths: err %v, want 3 units", err)
	}
}

// countingSplitter is a Splitter that counts its Splits calls and, when
// err is set, fails them.
type countingSplitter struct {
	crossval.Splitter
	calls *atomic.Int64
	err   error
}

func (s countingSplitter) Splits(n int, rng *rand.Rand) ([]crossval.Split, error) {
	s.calls.Add(1)
	if s.err != nil {
		return nil, s.err
	}
	return s.Splitter.Splits(n, rng)
}

// claimCounter counts the claims its store grants.
type claimCounter struct {
	core.ResultStore
	granted int
}

func (c *claimCounter) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	granted, err := c.ResultStore.ClaimBatch(ctx, keys)
	for _, ok := range granted {
		if ok {
			c.granted++
		}
	}
	return granted, err
}

// TestSplitsFailureReleasesClaims: the folds are drawn when the first unit
// goes to a worker, after the claim window holds claims. A Splitter that
// fails then fails the search, and the search leaves no claim held in the
// repository, nor on the claims-held gauge.
func TestSplitsFailureReleasesClaims(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	st := &claimCounter{ResultStore: &darr.Client{Repo: repo, ClientID: "a", Metric: "rmse"}}
	opts := batchOpts(st)
	boom := errors.New("no folds today")
	var calls atomic.Int64
	opts.Splitter = countingSplitter{Splitter: opts.Splitter, calls: &calls, err: boom}
	opts.ParamGrid = map[string][]float64{"knn__k": {3, 5, 7}}
	opts.Parallelism = 2
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	held := obs.GetGauge("coda_search_claims_held")
	held0 := held.Value()
	_, err := core.Search(context.Background(), fig3Graph(t), regDS(t, 60), opts)
	if !errors.Is(err, boom) {
		t.Fatalf("search with a failing Splitter: err %v, want %v", err, boom)
	}
	if calls.Load() != 1 || st.granted < 2 {
		t.Fatalf("%d Splits calls after %d claims granted; want 1 after at least 2", calls.Load(), st.granted)
	}
	if n := repo.ActiveClaims(); n != 0 {
		t.Errorf("%d claims still held in the repository, want 0", n)
	}
	if got := held.Value(); got != held0 {
		t.Errorf("claims-held gauge %v after the search, want %v", got, held0)
	}
}

// countingScaler is a standard scaler that counts the clones made of it
// and of its clones.
type countingScaler struct {
	core.Transformer
	clones *atomic.Int64
}

func (c countingScaler) Clone() core.Transformer {
	c.clones.Add(1)
	return countingScaler{Transformer: c.Transformer.Clone(), clones: c.clones}
}

// TestWarmSearchInstantiatesNothing: against an in-process DARR that holds
// every unit's score, a search settles each unit from the one lookup. It
// draws no folds (the cold search drew them once), builds no fold dataset
// and never clones the counting scaler, which sits on every path and
// carries no grid key: the search selects and fits nothing. FitBest then
// clones it exactly once. The warm search's allocations are pinned
// exactly, so one more per unit fails here.
func TestWarmSearchInstantiatesNothing(t *testing.T) {
	var clones atomic.Int64
	graph := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(countingScaler{Transformer: preprocess.NewStandardScaler(), clones: &clones})
		g.AddFeatureSelectors([]core.Transformer{preprocess.NewSelectKBest(2)}, []core.Transformer{preprocess.NewNoOp()})
		g.AddRegressionModels(mlmodels.NewLinearRegression(), mlmodels.NewKNN(mlmodels.KNNRegression, 3))
		return g
	}
	ds := regDS(t, 80)
	repo := darr.NewRepo(nil, time.Minute)
	opts := batchOpts(&darr.Client{Repo: repo, ClientID: "cold", Metric: "rmse"})
	opts.ParamGrid = map[string][]float64{"knn__k": {3, 5, 7}}
	opts.Parallelism = 1
	opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	var splits atomic.Int64
	opts.Splitter = countingSplitter{Splitter: opts.Splitter, calls: &splits}
	cold, err := core.Search(context.Background(), graph(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Computed != 8 || repo.Len() != 8 {
		t.Fatalf("cold search computed %d units and published %d, want 8", cold.Computed, repo.Len())
	}
	if got := splits.Swap(0); got != 1 {
		t.Errorf("cold search drew folds %d times, want 1", got)
	}

	opts.Store = &darr.Client{Repo: repo, ClientID: "warm", Metric: "rmse"}
	foldsBuilt := obs.GetCounter("coda_search_fold_datasets_total")
	folds0 := foldsBuilt.Value()
	clones.Store(0)
	warm, err := core.Search(context.Background(), graph(), ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != 8 || !sameBestBits(warm, cold) {
		t.Fatalf("warm search: %d hits, best %+v; want 8 and the cold search's %+v", warm.CacheHits, warm.Best, cold.Best)
	}
	if got := splits.Load(); got != 0 {
		t.Errorf("warm search drew folds %d times, want 0", got)
	}
	if got := foldsBuilt.Value() - folds0; got != 0 {
		t.Errorf("warm search built %d fold datasets, want 0", got)
	}
	if got := clones.Load(); got != 0 {
		t.Errorf("warm search cloned the scaler %d times, want 0", got)
	}
	if _, err := warm.FitBest(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := clones.Load(); got != 1 {
		t.Errorf("FitBest cloned the scaler %d times, want 1", got)
	}

	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer trace.SetEnabled(true)
	trace.SetEnabled(false)
	g := graph()
	const want = 86
	if got := testing.AllocsPerRun(10, func() {
		if _, err := core.Search(context.Background(), g, ds, opts); err != nil {
			t.Fatal(err)
		}
	}); got != want {
		t.Errorf("warm search of 8 units allocates %v, want exactly %v", got, want)
	}
}

func sameBestBits(a, b *core.SearchResult) bool {
	return a.Best != nil && b.Best != nil && a.Best.Spec == b.Best.Spec &&
		math.Float64bits(a.Best.Mean) == math.Float64bits(b.Best.Mean)
}
