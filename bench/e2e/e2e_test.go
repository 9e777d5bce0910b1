package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestCatalogueMatchesBenchmarkJSON: the names, units, directions and bounds
// the program emits are exactly the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program calibrates to %d", bj.RunSeconds, runSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench/e2e" {
		t.Errorf("paths %v, want [bench/e2e]", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, implemented %q: %q", i, bj.Workloads[i], w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	compare := func(kind string, declared []jsonMetric, implemented []metricDef, bounded bool) {
		if len(declared) != len(implemented) {
			t.Fatalf("%s: %d metrics declared, %d implemented", kind, len(declared), len(implemented))
		}
		for i, m := range implemented {
			d := declared[i]
			if d.Name != m.Name || d.Unit != m.Unit || d.Better != m.Better {
				t.Errorf("%s %d: declared %+v, implemented %+v", kind, i, d, m)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25)) {
				t.Errorf("%s %s: bound declared %v, implemented %v", kind, m.Name, d.Bound, m.Bound)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
				t.Errorf("%s %s (%s): bad or repeated name or unit", kind, m.Name, m.Unit)
			}
			seen[m.Name] = true
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEnd, true)
	compare("per_layer", bj.PerLayer, perLayer, false)
}

// TestWorkloadsTiny runs both passes of every workload at the tiny preset:
// outputs are checked, every emitted name is in the catalogue and every
// catalogue name is emitted by some workload, the core components sum to
// the search wall, and the layer chains close within 15%.
func TestWorkloadsTiny(t *testing.T) {
	known := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[m.Name] = true
	}
	emitted := map[string]bool{}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			b, err := runWorkload(w.Name, 7, presets["tiny"], 0, traced)
			if err != nil {
				t.Fatal(err)
			}
			if b.failed != 0 || b.attempted < 1 {
				t.Errorf("%s traced=%v: %d attempted, %d failed: %v", w.Name, traced, b.attempted, b.failed, b.checks)
			}
			for name, v := range b.values {
				if !known[name] {
					t.Errorf("%s emits %q, which BENCHMARK.json does not declare", w.Name, name)
				}
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v", w.Name, name, v)
				}
				emitted[name] = true
			}
			for _, m := range endToEnd {
				if b.values[m.Name] <= 0 {
					t.Errorf("%s traced=%v: end-to-end metric %s = %v", w.Name, traced, m.Name, b.values[m.Name])
				}
			}
			if !traced {
				continue
			}
			if got := b.values["chain.unexplained_ratio"]; got > 0.15 {
				t.Errorf("%s: layer chain leaves %.1f%% unexplained:\n%v", w.Name, 100*got, b.notes)
			}
			if units := b.values["core.units"]; units > 0 {
				parts := b.values["core.compute_s"] + b.values["core.darr_wait_s"] + b.values["core.queue_s"] + b.values["core.other_s"]
				if parts <= 0 {
					t.Errorf("%s: core components sum to %v", w.Name, parts)
				}
				if got := b.values["core.units_computed"] + b.values["core.units_cache_hit"] + b.values["core.units_skipped"]; got != units {
					t.Errorf("%s: %v units resolved of %v", w.Name, got, units)
				}
			}
			if len(b.result().Metrics) != len(perLayer) {
				t.Errorf("%s: traced result line has %d metrics, want %d", w.Name, len(b.result().Metrics), len(perLayer))
			}
		}
	}
	for name := range known {
		if !emitted[name] {
			t.Errorf("no workload emits %q", name)
		}
	}
}
