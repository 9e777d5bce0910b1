package delta

import (
	"math/rand"
	"testing"
)

// BenchmarkDeltaCompute is the kernel under the sync-delta workload: one
// random 32 KiB object at the default block, in each end-to-end edit shape.
func BenchmarkDeltaCompute(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	base := make([]byte, 32<<10)
	rng.Read(base)
	for _, s := range editShapes {
		target := edited(rng, base, s.runs, s.frac)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			var wire int
			for i := 0; i < b.N; i++ {
				wire = Compute(base, target, 0).WireSize()
			}
			b.ReportMetric(float64(wire), "wire-bytes")
		})
	}
}

// BenchmarkBuildIndex is what every edited pull pays before its first
// lookup: hashing and indexing the base's 512 blocks.
func BenchmarkBuildIndex(b *testing.B) {
	base := make([]byte, 32<<10)
	rand.New(rand.NewSource(1)).Read(base)
	b.SetBytes(int64(len(base)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		indexPool.Put(buildIndex(base, DefaultBlockSize))
	}
}
