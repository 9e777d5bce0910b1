package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
)

// TestReanalyticsLoop is the paper's re-analytics loop in process: a series
// grows by one stride at a time, and after every append both clients of a
// fleet sharing one DARR search the new version. Each version's fleet must
// end with the store-free search's winner, bit for bit, and compute every
// unit once between its clients. The sliding split is anchored at the
// stride, so each append keeps K−1 of the previous version's windows, index
// for index. The fold fits an append costs are pinned: a unit's DARR key
// covers the whole dataset, so an append re-keys every unit and
// re-analytics pays units × K fold fits, what a cold search pays.
// Fold-level keys would make a one-stride append cost one new fold per unit.
func TestReanalyticsLoop(t *testing.T) {
	const (
		k         = 3
		first     = 90 // samples in the first version
		stride    = 10 // samples per append
		appends   = 3
		foldFits  = divisionUnits * k // per append, across the fleet
		fleetSize = 2
	)
	series := regDS(t, first+appends*stride)
	splitter := crossval.SlidingSplit{K: k, TrainSize: 40, TestSize: 15, Buffer: 2, Stride: stride}
	opts := func(store core.ResultStore) core.SearchOptions {
		o := fleetOpts(store)
		o.Splitter = splitter
		return o
	}
	repo := darr.NewRepo(nil, time.Minute)
	fleet := make([]core.SearchOptions, fleetSize)
	for c := range fleet {
		fleet[c] = opts(darrClient(repo, fmt.Sprint("client-", c)))
	}
	var windows []crossval.Split
	for v := 0; v <= appends; v++ {
		ds := series.SliceRange(0, first+v*stride)
		splits, err := splitter.Splits(ds.NumSamples(), nil)
		if err != nil {
			t.Fatal(err)
		}
		if v > 0 && !reflect.DeepEqual(splits[:k-1], windows[1:]) {
			t.Errorf("append %d: windows %v, want the previous version's last %d %v first", v, splits, k-1, windows[1:])
		}
		windows = splits
		ref := runFleet(t, ds, []core.SearchOptions{opts(nil)}, 0)[0]
		_, _, putsBefore := repo.Stats()
		results := runFleet(t, ds, fleet, 0)
		if computed := wholeTable(t, results); computed != divisionUnits {
			t.Errorf("version %d: the fleet computed %d units, want each of %d once", v, computed, divisionUnits)
		}
		if _, _, puts := repo.Stats(); puts-putsBefore != divisionUnits {
			t.Errorf("version %d: %d publishes for %d units", v, puts-putsBefore, divisionUnits)
		}
		fits := 0
		for c, res := range results {
			if !sameBestBits(res, ref) {
				t.Errorf("version %d: client %d serves %v, the store-free search %v", v, c, res.Best, ref.Best)
			}
			for _, u := range res.Units {
				fits += len(u.Scores) // only a unit computed here has fold scores
			}
		}
		if v > 0 && fits != foldFits {
			t.Errorf("append %d cost %d fold fits across the fleet, want %d (units × K)", v, fits, foldFits)
		}
	}
}
