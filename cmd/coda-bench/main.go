// Command coda-bench regenerates the paper's tables and figures as
// experiments (see DESIGN.md section 4 and EXPERIMENTS.md for the index).
//
// Usage:
//
//	coda-bench -list
//	coda-bench -exp F3            # one experiment
//	coda-bench -all               # everything (slow: trains neural nets)
//	coda-bench -all -quick        # reduced sizes
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"coda/internal/experiments"
	"coda/internal/nn"
)

func main() {
	var (
		expID = flag.String("exp", "", "experiment id to run (T1, T2, F1..F12, S1..S4)")
		all   = flag.Bool("all", false, "run every experiment")
		list  = flag.Bool("list", false, "list experiments")
		quick = flag.Bool("quick", false, "reduced workload sizes")
		seed  = flag.Int64("seed", 1, "experiment seed")
		prec  = flag.String("nn-precision", "f64", "network compute precision for the TS experiments: f32 | f64")
	)
	flag.Parse()

	if err := run(*expID, *all, *list, *quick, *seed, *prec); err != nil {
		fmt.Fprintln(os.Stderr, "coda-bench:", err)
		os.Exit(1)
	}
}

func run(expID string, all, list, quick bool, seed int64, precision string) error {
	if list {
		for _, r := range experiments.All() {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return nil
	}
	prec, err := nn.ParsePrecision(precision)
	if err != nil {
		return err
	}
	cfg := experiments.Config{Seed: seed, Quick: quick, Precision: prec}
	var runners []experiments.Runner
	switch {
	case all:
		runners = experiments.All()
	case expID != "":
		r, err := experiments.ByID(expID)
		if err != nil {
			return err
		}
		runners = []experiments.Runner{r}
	default:
		return fmt.Errorf("pass -exp <id>, -all, or -list")
	}
	for _, r := range runners {
		start := time.Now()
		tbl, err := r.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Print(tbl.Format())
		fmt.Printf("(%s in %s)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
