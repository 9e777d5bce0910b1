package tsgraph_test

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/matrix"
	"coda/internal/metrics"
	"coda/internal/sim"
	"coda/internal/tsgraph"
)

var update = flag.Bool("update", false, "rewrite testdata/fig11_scores.golden from this build's portable kernel path")

// TestFig11ScoresPinned holds every fold score of a full Figure 11 search
// to the bits in testdata: each unit's spec and the hex bits of each fold
// score, one unit per line in unit order. A kernel, layer or fit change
// that moves any score bit fails here, naming the unit; such a change also
// bumps numerics in core's evaluation spec. The scores were written
// before the LSTM step, the layer-0 gradient skip and blocked Predict, so
// they hold those changes to the scores of the code they replaced; only the
// specs were rewritten since, when the precision hyperparameter left them.
// The search runs once per kernel path this CPU has, a subtest each, so
// every path is held to the same bits.
//
// amd64 only: the series it trains on is not the same bits on arm64.
// sim.GenerateSeries calls math.Sin, and its rand.NormFloat64 noise calls
// math.Log, both pure Go with fusible products there (ROADMAP 7(a')).
func TestFig11ScoresPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("fold scores are pinned on amd64 only until sim's series, through math.Sin and rand.NormFloat64's math.Log, is the same bits on arm64")
	}
	for _, path := range matrix.KernelPaths() {
		if err := matrix.WithKernelPath(path, func() { t.Run(path, fig11ScoresPinned) }); err != nil {
			t.Fatal(err)
		}
	}
}

func fig11ScoresPinned(t *testing.T) {
	got := fig11Scores(t)
	path := filepath.Join("testdata", "fig11_scores.golden")
	if *update && t.Name() == "TestFig11ScoresPinned/portable" {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readLines(t, path)
	if len(got) != len(want) {
		t.Fatalf("%d units, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("unit %d:\n got  %s\n want %s", i, got[i], want[i])
		}
	}
}

// fig11Scores runs a store-free, two-worker search of the full graph on a
// short series and renders each unit as "spec bits bits ...".
func fig11Scores(t *testing.T) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 240, Vars: 2, Regime: sim.RegimeAR}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g, err := tsgraph.New(tsgraph.Config{History: 8, Epochs: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		t.Fatal(err)
	}
	n := series.NumSamples()
	res, err := core.Search(context.Background(), g, series, core.SearchOptions{
		Splitter:    crossval.SlidingSplit{K: 3, TrainSize: n / 2, TestSize: n / 6, Buffer: 8},
		Scorer:      scorer,
		Parallelism: 2,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 48 {
		t.Fatalf("%d units, want 48", len(res.Units))
	}
	lines := make([]string, len(res.Units))
	for i, u := range res.Units {
		if u.Err != "" {
			t.Fatalf("unit %s failed: %s", u.Spec, u.Err)
		}
		var b strings.Builder
		b.WriteString(u.Spec)
		for _, s := range u.Scores {
			fmt.Fprintf(&b, " %016x", math.Float64bits(s))
		}
		lines[i] = b.String()
	}
	return lines
}

func readLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update on a build whose scores are right)", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
