// Command e2e is the repository's end-to-end benchmark: it boots the wiring
// of cmd/coda-server in-process behind a loopback listener, drives it only
// through httpapi.Client and core.Search, checks every output, and prints
// every metric by name with its unit. README.md is the manual.
//
//	go run -C bench/e2e . -workload sync-delta -seed 1
//	go run -C bench/e2e . -workload sync-delta -seed 1 -trace 1
//	go run -C bench/e2e . -selfcheck
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"coda/internal/obs/trace"
)

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed      = flag.Int64("seed", 1, "seed for dataset generation, object bytes and edit offsets (the system under test never sees it)")
		seconds   = flag.Int("seconds", runSeconds, "how long to measure: repetition counts scale from the full preset by seconds/"+strconv.Itoa(runSeconds))
		traced    = flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics; 0 prints the end-to-end metrics")
		selfcheck = flag.Bool("selfcheck", false, "run two interleaved sets of every workload and print the repeatability table")
	)
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2e: -seconds must be at least 1")
		os.Exit(2)
	}
	if *selfcheck {
		if err := selfCheck(os.Stdout, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	}
	b, err := runWorkload(*name, *seed, presets["full"].scaled(*seconds), *seconds, *traced != 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	b.report(os.Stdout)
	if b.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// runWorkload runs one workload once and returns everything it measured.
// An error means the run could not complete; failed correctness checks are
// counted in the returned bench instead.
func runWorkload(name string, seed int64, sz sizes, seconds int, traced bool) (*bench, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].Name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, strings.Join(workloadNames(), " | "))
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	// The program's own tracing is off in the untraced pass, so
	// SearchResult.Profile is read in the traced pass only.
	trace.SetEnabled(traced)
	defer trace.SetEnabled(true)

	root, fs, err := newDataRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	b := &bench{workload: name, seed: seed, sz: sz, seconds: seconds, traced: traced, dataRoot: root, dsnFS: fs,
		values: map[string]float64{}, started: time.Now(), host: newHostRef()}
	if traced {
		b.rec = newRecorder()
	}
	if err := w.run(b); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	b.finishEndToEnd()
	if traced {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		b.set("rt.peak_rss_mb", peakRSSMB())
		b.set("rt.heap_alloc_mb", float64(m.TotalAlloc)/(1<<20))
		b.set("rt.gc_pause_ms", float64(m.PauseTotalNs)/1e6)
		path := filepath.Join(checkoutRoot(), ".bench_build", "spans-"+name+".jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := b.rec.writeFile(path); err != nil {
			return nil, err
		}
		b.note("spans: %d written to %s", b.mark(), path)
	}
	return b, nil
}

// checkoutRoot finds the directory holding BENCHMARK.json, from the
// working directory upwards (go run -C bench/e2e starts two levels down).
func checkoutRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}

// peakRSSMB reads the process's high-water resident set from /proc.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalogue returns the metrics this pass reports.
func (b *bench) catalogue() []metricDef {
	if b.traced {
		return perLayer
	}
	return endToEnd
}

func (b *bench) result() result {
	r := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, m := range b.catalogue() {
		r.Metrics[m.Name] = metricValue{b.values[m.Name], m.Unit}
	}
	return r
}

// report prints the run's context, every number it produced by name with
// its unit, the layer chains, and the result line last.
func (b *bench) report(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "workload=%s seed=%d trace=%v gomaxprocs=%d go=%s commit=%s dsn_fs=%s fsync=per-batch compact_every=%d\n",
		b.workload, b.seed, b.traced, runtime.GOMAXPROCS(0), runtime.Version(), commit, b.dsnFS, b.sz.CompactEvery)
	units := map[string]string{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[m.Name] = m.Unit
	}
	names := make([]string, 0, len(b.values))
	for n := range b.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", n, b.values[n], units[n])
	}
	for _, n := range b.notes {
		fmt.Fprintln(w, n)
	}
	for _, c := range b.checks {
		fmt.Fprintln(w, "FAILED CHECK:", c)
	}
	line, err := json.Marshal(b.result())
	if err != nil {
		panic(errors.Join(errors.New("encoding the result line"), err))
	}
	fmt.Fprintf(w, "%s\n", line)
}
