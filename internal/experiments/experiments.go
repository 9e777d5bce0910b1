// Package experiments regenerates every table and figure of the paper as a
// runnable experiment (see DESIGN.md section 4 for the index). Each Run*
// function produces a formatted Table; cmd/coda-bench prints them and the
// root bench suite wraps them as testing.B benchmarks. All experiments are
// deterministic for a fixed Config.Seed.
package experiments

import (
	"fmt"
	"strings"
)

// Config controls experiment scale.
type Config struct {
	Seed int64
	// Quick shrinks workloads for benchmarks and CI; full runs are the
	// defaults reported in EXPERIMENTS.md.
	Quick bool
}

// pick returns quick when cfg.Quick, otherwise full.
func (c Config) pick(full, quick int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one experiment's result in printable form.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a free-form footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f formats a float compactly.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// d formats an int.
func d(v int) string { return fmt.Sprintf("%d", v) }

// Runner is a named experiment entry point.
type Runner struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// All lists every experiment in DESIGN.md order.
func All() []Runner {
	return []Runner{
		{"T1", "Table I regression modelling search", RunT1},
		{"T2", "Table II time-series pipeline search", RunT2},
		{"F1", "Fig 1 distributed evaluation latency", RunF1},
		{"F2", "Fig 2 DARR cooperation", RunF2},
		{"F3", "Fig 3 graph enumeration and search", RunF3},
		{"F4", "Fig 4 K-fold cross-validation", RunF4},
		{"F5", "Fig 5 pipeline fit/predict semantics", RunF5},
		{"F6", "Fig 6 multivariate series simulator", RunF6},
		{"F7", "Fig 7 cascaded windows", RunF7},
		{"F8", "Fig 8 flat windowing", RunF8},
		{"F9", "Fig 9 TS-as-IID", RunF9},
		{"F10", "Fig 10 TS-as-is", RunF10},
		{"F11", "Fig 11 time-series pipeline winners by regime", RunF11},
		{"F12", "Fig 12 sliding split vs naive K-fold", RunF12},
		{"S1", "Sec III delta encoding bandwidth", RunS1},
		{"S2", "Sec III pull/push propagation modes", RunS2},
		{"S3", "Sec III change-triggered re-analytics", RunS3},
		{"S4", "Sec IV-E solution templates", RunS4},
	}
}

// ByID returns the runner for an experiment id.
func ByID(id string) (Runner, error) {
	for _, r := range All() {
		if strings.EqualFold(r.ID, id) {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
