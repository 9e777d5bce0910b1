package sim

import (
	"testing"
	"time"

	"coda/internal/replication"
)

func TestRunPushLoadConverges(t *testing.T) {
	res, err := RunPushLoad(PushLoadSpec{
		Subscribers: 500, Publishes: 8, Workers: 4, PayloadBytes: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames < int64(res.Subscribers) {
		t.Fatalf("%d frames for %d subscribers — someone saw nothing", res.Frames, res.Subscribers)
	}
	if res.P99 <= 0 || res.Max < res.P99 || res.P99 < res.P50 {
		t.Fatalf("degenerate latency profile: p50=%v p99=%v max=%v", res.P50, res.P99, res.Max)
	}
	if res.CoalescedRatio < 1 {
		t.Fatalf("coalesced ratio %v < 1", res.CoalescedRatio)
	}
}

func TestRunPushLoadCoalescesUnderWindow(t *testing.T) {
	res, err := RunPushLoad(PushLoadSpec{
		Subscribers: 50, Publishes: 20, Workers: 4,
		CoalesceWindow: 40 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 20 rapid publishes inside a 40ms window must not cost 20 frames per
	// lease: the window merges most of the burst.
	perLease := float64(res.Frames) / float64(res.Subscribers)
	if perLease > 10 {
		t.Fatalf("%.1f frames per lease for %d publishes — window did not coalesce", perLease, res.Publishes)
	}
	if res.CoalescedRatio < 2 {
		t.Fatalf("coalesced ratio %.2f, want >= 2 under a burst", res.CoalescedRatio)
	}
}

func TestRunPushLoadValueMode(t *testing.T) {
	res, err := RunPushLoad(PushLoadSpec{
		Subscribers: 100, Publishes: 4, Workers: 4,
		Mode: replication.PushValue, PayloadBytes: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames delivered")
	}
}

func TestRunPushLoadRejectsEmptySpec(t *testing.T) {
	if _, err := RunPushLoad(PushLoadSpec{}); err == nil {
		t.Fatal("empty spec should error")
	}
}

// BenchmarkPushFanout100k is the acceptance harness: 100k leases on one
// hot object, a burst of publishes, p50/p99 publish→frame latency
// reported as custom metrics; it fails itself if any subscriber missed the
// final version.
func BenchmarkPushFanout100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunPushLoad(PushLoadSpec{
			Subscribers: 100_000, Publishes: 10, Workers: 8,
			CoalesceWindow: 5 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.P50), "p50-ns")
		b.ReportMetric(float64(res.P99), "p99-ns")
		b.ReportMetric(float64(res.Frames)/float64(res.Subscribers), "frames/sub")
		b.ReportMetric(res.CoalescedRatio, "coalesce-ratio")
	}
}

// BenchmarkPushFanout10k is the quicker tracking benchmark.
func BenchmarkPushFanout10k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := RunPushLoad(PushLoadSpec{
			Subscribers: 10_000, Publishes: 10, Workers: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.P99), "p99-ns")
	}
}
