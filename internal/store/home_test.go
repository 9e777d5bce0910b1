package store

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"coda/internal/obs"
)

// putVersions seeds n versions of key, each a small edit of the last, and
// returns the final data. Small edits keep every base→latest delta cheap,
// so the tests exercise the delta path deterministically.
func putVersions(t testing.TB, s ObjectStore, key string, n, size int) []byte {
	t.Helper()
	data := bytes.Repeat([]byte("abcdefgh"), size/8)
	for i := 0; i < n; i++ {
		data = append([]byte(nil), data...)
		data[(i*131)%len(data)] ^= 0xff
		mustPut(t, s, key, data)
	}
	return data
}

// TestDeltaCacheCapBoundsEntries pins the hot-key churn fix: the per-
// object delta memo holds one entry per retained base, so the retention
// window bounds it however many distinct bases readers ask from, and the
// entries gauge follows inserts and the in-place clear on Put.
func TestDeltaCacheCapBoundsEntries(t *testing.T) {
	gauge := obs.GetGauge("coda_store_delta_cache_entries")
	before := gauge.Value()

	s := NewHomeStore(Options{Retain: 3, BlockSize: 32})
	putVersions(t, s, "hot", 8, 2048) // versions 5..8 retained (Retain 3)

	// Readers at many distinct bases: a retained base forces one delta
	// computation, an evicted one gets the full value.
	for base := uint64(1); base <= 7; base++ {
		reply, err := s.Get("hot", base)
		if err != nil {
			t.Fatal(err)
		}
		if retained := base >= 5; reply.IsDelta() != retained {
			t.Fatalf("base %d: delta reply %v, want %v", base, reply.IsDelta(), retained)
		}
	}
	if n := s.deltaCacheLen("hot"); n != 3 {
		t.Fatalf("delta memo holds %d entries, want one per retained base (3)", n)
	}
	if got := gauge.Value() - before; got != 3 {
		t.Fatalf("gauge moved by %v, want 3 live entries", got)
	}

	// Put invalidates in place; the gauge must fall back to the baseline.
	mustPut(t, s, "hot", bytes.Repeat([]byte("zzzzzzzz"), 256))
	if n := s.deltaCacheLen("hot"); n != 0 {
		t.Fatalf("cache holds %d entries after Put", n)
	}
	if got := gauge.Value() - before; got != 0 {
		t.Fatalf("gauge off by %v after invalidation", got)
	}

	// Cached entries are reused: a repeat Get for a cached base performs
	// no extra compute.
	putVersions(t, s, "warm", 2, 2048)
	if _, err := s.Get("warm", 1); err != nil {
		t.Fatal(err)
	}
	computes := s.Stats().DeltaComputes
	if _, err := s.Get("warm", 1); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().DeltaComputes; got != computes {
		t.Fatalf("cached base recomputed: %d -> %d computes", computes, got)
	}
}

// TestSingleflightDeltaCompute proves duplicate concurrent delta requests
// for the same (key, base) join one computation instead of repeating it.
func TestSingleflightDeltaCompute(t *testing.T) {
	s := NewHomeStore(Options{Retain: 4, BlockSize: 32})
	want := putVersions(t, s, "o", 2, 1<<16)

	const readers = 16
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reply, err := s.Get("o", 1)
			if err != nil {
				errs <- err
				return
			}
			rep := NewReplica()
			if err := rep.ApplyReply(&Reply{Key: "o", Version: 1, Full: wantBase(want)}); err != nil {
				errs <- err
				return
			}
			if err := rep.ApplyReply(reply); err != nil {
				errs <- fmt.Errorf("apply: %w", err)
				return
			}
			if got, _ := rep.Data("o"); !bytes.Equal(got, want) {
				errs <- fmt.Errorf("replica diverged")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// All 16 readers needed d(o, 1, 2); the singleflight admits one
	// computation (racing stragglers may add a couple more, never 16).
	if got := s.Stats().DeltaComputes; got > 3 {
		t.Fatalf("%d delta computations for one (key, base) pair", got)
	}
}

// wantBase reconstructs version 1's data for the singleflight test: the
// second putVersions edit flipped byte 131 of version 1.
func wantBase(v2 []byte) []byte {
	base := append([]byte(nil), v2...)
	base[131] ^= 0xff
	return base
}

// TestShardedKeysAndStats covers the cross-shard aggregation paths.
func TestShardedKeysAndStats(t *testing.T) {
	s := NewHomeStore(Options{shards: 4})
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, k := range keys {
		mustPut(t, s, k, []byte(k))
	}
	var got []string
	s.Each(func(k string) bool { got = append(got, k); return true })
	if len(got) != len(keys) {
		t.Fatalf("Each visited %d keys, want %d", len(got), len(keys))
	}
	seen := map[string]bool{}
	for _, k := range got {
		seen[k] = true
	}
	for _, k := range keys {
		if !seen[k] {
			t.Fatalf("Keys() missing %q", k)
		}
		if _, err := s.Get(k, 0); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.FullReplies != len(keys) {
		t.Fatalf("stats counted %d full replies, want %d", st.FullReplies, len(keys))
	}
}
