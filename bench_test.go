// Package coda's root benchmark suite: one testing.B target per paper
// table/figure (see DESIGN.md section 4), each delegating to the
// experiment runner in internal/experiments with Quick sizing, plus the
// ablation benches DESIGN.md section 5 calls out.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkFig3
package coda_test

import (
	"math/rand"
	"testing"

	"coda/internal/dataset"
	"coda/internal/delta"
	"coda/internal/experiments"
	"coda/internal/matrix"
	"coda/internal/sim"
	"coda/internal/store"
	"coda/internal/tswindow"
)

// benchExperiment runs one experiment per iteration; b.N stays small
// because a single run is already a full table regeneration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tbl, err := r.Run(experiments.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatalf("%s: empty table", id)
		}
	}
}

func BenchmarkTable1RegressionSearch(b *testing.B) { benchExperiment(b, "T1") }
func BenchmarkTable2TimeSeriesSearch(b *testing.B) { benchExperiment(b, "T2") }
func BenchmarkFig1DistributedEval(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkFig2DARRCooperation(b *testing.B)    { benchExperiment(b, "F2") }
func BenchmarkFig3GraphSearch(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkFig4KFold(b *testing.B)              { benchExperiment(b, "F4") }
func BenchmarkFig5FitPredict(b *testing.B)         { benchExperiment(b, "F5") }
func BenchmarkFig6Simulator(b *testing.B)          { benchExperiment(b, "F6") }
func BenchmarkFig7CascadedWindows(b *testing.B)    { benchExperiment(b, "F7") }
func BenchmarkFig8FlatWindowing(b *testing.B)      { benchExperiment(b, "F8") }
func BenchmarkFig9TSAsIID(b *testing.B)            { benchExperiment(b, "F9") }
func BenchmarkFig10TSAsIs(b *testing.B)            { benchExperiment(b, "F10") }
func BenchmarkFig11TSPipeline(b *testing.B)        { benchExperiment(b, "F11") }
func BenchmarkFig12SlidingSplit(b *testing.B)      { benchExperiment(b, "F12") }
func BenchmarkS1DeltaEncoding(b *testing.B)        { benchExperiment(b, "S1") }
func BenchmarkS2Propagation(b *testing.B)          { benchExperiment(b, "S2") }
func BenchmarkS3RetrainTriggers(b *testing.B)      { benchExperiment(b, "S3") }
func BenchmarkS4Templates(b *testing.B)            { benchExperiment(b, "S4") }

// --- Ablations (DESIGN.md section 5) ---

// BenchmarkAblationDeltaBlockSize sweeps the delta block granularity:
// smaller blocks match finer edits but cost more index/metadata.
func BenchmarkAblationDeltaBlockSize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 1<<18)
	rng.Read(base)
	target := append([]byte(nil), base...)
	for i := 0; i < 64; i++ {
		target[rng.Intn(len(target))] ^= 0xff
	}
	for _, block := range []int{16, 64, 256, 1024} {
		block := block
		b.Run(bsize(block), func(b *testing.B) {
			b.ReportAllocs()
			var wire int
			for i := 0; i < b.N; i++ {
				d := delta.Compute(base, target, block)
				wire = d.WireSize()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}

// BenchmarkDeltaCompute32K is the kernel under the sync-delta workload: one
// 32 KiB object, four rewritten runs totalling 1% of it (a delta reply) and
// one run of 60% (a delta the store discards for a full copy).
func BenchmarkDeltaCompute32K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 32<<10)
	rng.Read(base)
	for _, edit := range []struct {
		name string
		runs int
		frac float64
	}{{"edit-1pct", 4, 0.01}, {"edit-60pct", 1, 0.60}} {
		target := append([]byte(nil), base...)
		n := int(edit.frac * float64(len(target)) / float64(edit.runs))
		for r := 0; r < edit.runs; r++ {
			off := rng.Intn(len(target) - n + 1)
			rng.Read(target[off : off+n])
		}
		b.Run(edit.name, func(b *testing.B) {
			b.ReportAllocs()
			var wire int
			for i := 0; i < b.N; i++ {
				wire = delta.Compute(base, target, 0).WireSize()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}

func bsize(n int) string {
	switch {
	case n >= 1024:
		return "block-1KiB"
	case n >= 256:
		return "block-256B"
	case n >= 64:
		return "block-64B"
	default:
		return "block-16B"
	}
}

// BenchmarkAblationDeltaCacheDepth varies how many past versions the home
// store retains as delta bases: deeper retention serves more delta replies
// to laggy clients at higher memory cost.
func BenchmarkAblationDeltaCacheDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	for _, retain := range []int{1, 4, 16} {
		retain := retain
		b.Run("retain-"+itoa(retain), func(b *testing.B) {
			b.ReportAllocs()
			var deltaReplies int
			for i := 0; i < b.N; i++ {
				hs := store.NewHomeStore(store.Options{Retain: retain, BlockSize: 64})
				data := make([]byte, 1<<14)
				rng.Read(data)
				hs.Put("o", data)
				// 12 updates; a client 8 versions behind asks for the latest.
				for u := 0; u < 12; u++ {
					data = append([]byte(nil), data...)
					data[rng.Intn(len(data))] ^= 0xff
					hs.Put("o", data)
				}
				reply, err := hs.Get("o", 5)
				if err != nil {
					b.Fatal(err)
				}
				if reply.IsDelta() {
					deltaReplies++
				}
			}
			b.ReportMetric(float64(deltaReplies)/float64(b.N), "delta-hit-rate")
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblationWindowLayout compares the production cascaded-windows
// implementation (one backing allocation) against a per-window-allocation
// variant.
func BenchmarkAblationWindowLayout(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	series, err := sim.GenerateSeries(sim.SeriesSpec{Steps: 5000, Vars: 4, Regime: sim.RegimeAR}, rng)
	if err != nil {
		b.Fatal(err)
	}
	const history = 16

	b.Run("single-backing", func(b *testing.B) {
		b.ReportAllocs()
		tr := tswindow.NewCascadedWindows(history, 1, 0)
		for i := 0; i < b.N; i++ {
			if _, err := tr.Transform(series); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("per-window-alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := perWindowAlloc(series, history); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// perWindowAlloc is the naive baseline: every window gets its own slice,
// then rows are copied into a matrix.
func perWindowAlloc(series *dataset.Dataset, history int) (*matrix.Matrix, error) {
	v := series.X.Cols()
	l := series.X.Rows() - history
	rows := make([][]float64, l)
	for i := 0; i < l; i++ {
		w := make([]float64, 0, history*v)
		for t := 0; t < history; t++ {
			w = append(w, series.X.Row(i+t)...)
		}
		rows[i] = w
	}
	return matrix.NewFromRows(rows)
}

// BenchmarkAblationSearchParallelism sweeps the evaluation worker-pool
// width over the Figure 3 graph.
func BenchmarkAblationSearchParallelism(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		workers := workers
		b.Run("workers-"+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := runFig3Search(int64(i+1), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
