package persist

import (
	"fmt"
	"os"
	"testing"
)

// benchFill writes history puts over live distinct keys — the shape where
// compaction pays: open time O(live) vs O(history).
func benchFill(b *testing.B, kv KV, history, live int) {
	b.Helper()
	val := make([]byte, 256)
	for i := 0; i < history; i++ {
		k := fmt.Sprintf("k/%06d", i%live)
		if err := kv.PutBatch([]Item{{Key: k, Value: val}}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOpenDir(b *testing.B, compact bool) string {
	b.Helper()
	dir, err := os.MkdirTemp("", "persist-bench-")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { os.RemoveAll(dir) })
	kv, err := Open("log:" + dir)
	if err != nil {
		b.Fatal(err)
	}
	benchFill(b, kv, 10000, 100)
	if compact {
		if err := kv.Compact(); err != nil {
			b.Fatal(err)
		}
	}
	if err := kv.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkPersistOpenUncompacted10k replays all 10k records at open.
func BenchmarkPersistOpenUncompacted10k(b *testing.B) {
	dir := benchOpenDir(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv, err := Open("log:" + dir)
		if err != nil {
			b.Fatal(err)
		}
		kv.Close()
	}
}

// BenchmarkPersistOpenCompacted10k loads the 100-key snapshot instead;
// that it replays no records is log_test.go's assertion, not a timing.
func BenchmarkPersistOpenCompacted10k(b *testing.B) {
	dir := benchOpenDir(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kv, err := Open("log:" + dir)
		if err != nil {
			b.Fatal(err)
		}
		kv.Close()
	}
}

// fillLive writes n distinct keys k/000000.. in one batch (one fsync).
func fillLive(tb testing.TB, kv KV, n int, val []byte) {
	tb.Helper()
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{Key: fmt.Sprintf("k/%06d", i), Value: val}
	}
	if err := kv.PutBatch(items); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPersistCursorScan streams 10k live keys through a prefix cursor.
func BenchmarkPersistCursorScan(b *testing.B) {
	kv, err := Open("log:" + b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	fillLive(b, kv, 10000, make([]byte, 256))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur, err := kv.Cursor("k/")
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for cur.Next() {
			n++
		}
		cur.Close()
		if n != 10000 {
			b.Fatalf("scan saw %d keys", n)
		}
	}
}

// BenchmarkPersistPutBatchLog measures the durable batched write path,
// fsync included.
func BenchmarkPersistPutBatchLog(b *testing.B) {
	dir := b.TempDir()
	kv, err := Open("log:" + dir)
	if err != nil {
		b.Fatal(err)
	}
	defer kv.Close()
	val := make([]byte, 256)
	items := make([]Item, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range items {
			items[j] = Item{Key: fmt.Sprintf("k/%06d", (i*16+j)%1000), Value: val}
		}
		if err := kv.PutBatch(items); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteAndScanAllocationsExact pins what the two hot calls allocate in
// steady state — overwriting one 16-item batch, and one prefix scan over
// 1000 live keys — so a new allocation per batch or per key fails here,
// not as a few per cent of a benchmark mean.
func TestWriteAndScanAllocationsExact(t *testing.T) {
	items := make([]Item, 16)
	for j := range items {
		items[j] = Item{Key: fmt.Sprintf("k/%06d", j), Value: make([]byte, 256)}
	}
	written := mustOpen(t, "log:"+t.TempDir())
	defer written.Close()
	putBatch := func() error { return written.PutBatch(items) }
	scanned := mustOpen(t, "log:"+t.TempDir())
	defer scanned.Close()
	fillLive(t, scanned, 1000, []byte("v"))
	scan := func() error {
		cur, err := scanned.Cursor("k/")
		if err != nil {
			return err
		}
		defer cur.Close()
		n := 0
		for cur.Next() {
			n++
		}
		if n != 1000 {
			return fmt.Errorf("scan saw %d keys, want 1000", n)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		call func() error
		want float64
	}{
		{"PutBatch log:", putBatch, 16},
		{"Cursor scan log:", scan, 12},
	} {
		got := testing.AllocsPerRun(20, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations in steady state, want exactly %v", c.name, got, c.want)
		}
	}
}
