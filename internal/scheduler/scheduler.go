// Package scheduler orchestrates cooperative Transformer-Estimator-Graph
// searches across multiple clients (Figure 2): every client runs the same
// model validation and selection task against a shared DARR, reusing
// published results and claiming unfinished units so the fleet partitions
// the work instead of duplicating it.
package scheduler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
	"coda/internal/dataset"
)

// ClientReport summarizes one client's share of a fleet run.
type ClientReport struct {
	ClientID  string
	Computed  int // units this client evaluated itself
	CacheHits int // units satisfied from the DARR
	Skipped   int // units another client had claimed
	Failed    int // units whose pipelines errored
	Wall      time.Duration
	BestSpec  string
	BestScore float64
}

// FleetResult aggregates a cooperative run.
type FleetResult struct {
	Reports []ClientReport
	// TotalComputed sums per-client computations — with cooperation it
	// approaches the number of distinct units; without, it approaches
	// clients x units.
	TotalComputed int
	// UniqueUnits is the number of distinct evaluation units in the task.
	UniqueUnits int
	// Wall is the longest single-client wall time.
	Wall time.Duration
}

// RedundancyFactor is TotalComputed divided by UniqueUnits (1.0 = perfect
// cooperation; `clients` = fully redundant).
func (f *FleetResult) RedundancyFactor() float64 {
	if f.UniqueUnits == 0 {
		return 0
	}
	return float64(f.TotalComputed) / float64(f.UniqueUnits)
}

// FleetOptions configures RunFleet.
type FleetOptions struct {
	Clients int // number of cooperating clients (>= 1)
	// Search is the per-client search configuration. Its Store field is
	// overwritten per client; set Cooperate to control sharing.
	Search core.SearchOptions
	// Cooperate wires every client to the shared repo; false runs each
	// client in isolation (the baseline the paper's design argues against).
	Cooperate bool
	// Stagger delays each client's start, modelling clients arriving at
	// different times (later clients then find more results in the DARR).
	Stagger time.Duration
}

// RunFleet runs the same graph search from Clients concurrent clients.
// buildGraph must return a fresh graph per call (graphs hold component
// instances that cannot be shared across clients).
func RunFleet(ctx context.Context, buildGraph func() *core.Graph, ds *dataset.Dataset, repo *darr.Repo, opts FleetOptions) (*FleetResult, error) {
	if opts.Clients < 1 {
		return nil, fmt.Errorf("scheduler: need >= 1 client, got %d", opts.Clients)
	}
	if repo == nil && opts.Cooperate {
		return nil, fmt.Errorf("scheduler: cooperation requires a repo")
	}
	// Count distinct units once.
	probe := buildGraph()
	if err := probe.Finalize(); err != nil {
		return nil, fmt.Errorf("scheduler: graph: %w", err)
	}
	unique := probe.NumPipelines() // grid-free graphs: one unit per path
	if len(opts.Search.ParamGrid) > 0 {
		unique = 0 // counted from the first client's result below
	}

	reports := make([]ClientReport, opts.Clients)
	errs := make([]error, opts.Clients)
	unitCounts := make([]int, opts.Clients)
	var wg sync.WaitGroup
	for c := 0; c < opts.Clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if opts.Stagger > 0 {
				select {
				case <-time.After(time.Duration(c) * opts.Stagger):
				case <-ctx.Done():
					errs[c] = ctx.Err()
					return
				}
			}
			clientID := fmt.Sprintf("client-%d", c)
			so := opts.Search
			so.Store = nil
			if opts.Cooperate {
				so.Store = &darr.Client{Repo: repo, ClientID: clientID, Metric: so.Scorer.Name}
			}
			start := time.Now()
			res, err := core.Search(ctx, buildGraph(), ds, so)
			if err != nil {
				errs[c] = fmt.Errorf("scheduler: %s: %w", clientID, err)
				return
			}
			rep := ClientReport{
				ClientID:  clientID,
				Computed:  res.Computed,
				CacheHits: res.CacheHits,
				Skipped:   res.Skipped,
				Wall:      time.Since(start),
			}
			for _, u := range res.Units {
				if u.Err != "" {
					rep.Failed++
				}
			}
			if res.Best != nil {
				rep.BestSpec = res.Best.Spec
				rep.BestScore = res.Best.Mean
			}
			reports[c] = rep
			unitCounts[c] = len(res.Units)
		}()
	}
	wg.Wait()
	if unique == 0 {
		for _, n := range unitCounts {
			if n > 0 {
				unique = n
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	out := &FleetResult{Reports: reports, UniqueUnits: unique}
	for _, r := range reports {
		out.TotalComputed += r.Computed
		if r.Wall > out.Wall {
			out.Wall = r.Wall
		}
	}
	return out, nil
}
