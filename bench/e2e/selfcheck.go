package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// selfCheck runs two interleaved sets (A B A B ...) of every workload on
// this build, each run in a fresh process and on another seed, and prints
// per (workload, metric) both medians, both quartile spreads, the relative
// difference of the medians and the bound. It fails when a spread or the
// difference is outside the bound (setup_s is held to the difference only).
func selfCheck(w io.Writer, seconds int) error {
	const runs = 5 // a side
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "| workload | metric | median A | spread A | median B | spread B | B worse by | bound | |\n|---|---|---|---|---|---|---|---|---|\n")
	bad := 0
	seed := 1
	for _, wl := range workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < runs; i++ {
			for side := range sets {
				cmd := exec.Command(exe, "-workload", wl.Name, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
				seed++
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s: %w", wl.Name, err)
				}
				lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
				var r result
				if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
					return fmt.Errorf("%s: result line: %w", wl.Name, err)
				}
				for name, m := range r.Metrics {
					sets[side][name] = append(sets[side][name], m.Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, c := sets[0][m.Name], sets[1][m.Name]
			ma, mb := quantile(a, 0.5), quantile(c, 0.5)
			sa, sb := spread(a), spread(c)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && math.Max(sa, sb) > m.Bound) {
				verdict = "OUTSIDE"
				bad++
			}
			fmt.Fprintf(w, "| %s | %s | %.6g | %.1f%% | %.6g | %.1f%% | %+.1f%% | %.0f%% | %s |\n",
				wl.Name, m.Name, ma, 100*sa, mb, 100*sb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pairs outside their bound", bad)
	}
	return nil
}

// spread is the distance between the first and third quartile as a share
// of the median.
func spread(v []float64) float64 {
	return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5)
}

// quantile matches Python's statistics.quantiles (exclusive method), the
// rule the benchmark's contract is checked with.
func quantile(v []float64, p float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	pos := p*float64(n+1) - 1 // 0-based
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return s[0]
	case lo >= n-1:
		return s[n-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
