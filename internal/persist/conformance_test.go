package persist

import (
	"fmt"
	"sync"
	"testing"
)

// dsnFor builds a DSN for a scheme against a fresh temp directory, so the
// conformance suite runs the identical contract against every backend — a
// scheme added to the list inherits the suite.
func dsnFor(t *testing.T, scheme string) string {
	t.Helper()
	return scheme + ":" + t.TempDir()
}

func mustOpen(t *testing.T, dsn string) KV {
	t.Helper()
	kv, err := Open(dsn)
	if err != nil {
		t.Fatalf("Open(%q): %v", dsn, err)
	}
	return kv
}

// TestConformance runs the contract against every backend; "mem:" opens
// none (TestMemOpensNoKV).
func TestConformance(t *testing.T) {
	for _, scheme := range schemes {
		if scheme == "mem" {
			continue
		}
		t.Run(scheme, func(t *testing.T) {
			t.Run("BatchRoundTrip", func(t *testing.T) { testBatchRoundTrip(t, dsnFor(t, scheme)) })
			t.Run("CursorOrderingAndPrefix", func(t *testing.T) { testCursorOrdering(t, dsnFor(t, scheme)) })
			t.Run("CompactPreservesState", func(t *testing.T) { testCompactPreserves(t, dsnFor(t, scheme)) })
			t.Run("ClosedOps", func(t *testing.T) { testClosedOps(t, dsnFor(t, scheme)) })
			t.Run("ConcurrentStress", func(t *testing.T) { testConcurrentStress(t, dsnFor(t, scheme)) })
			t.Run("ReplayAfterRestart", func(t *testing.T) { testReplayAfterRestart(t, dsnFor(t, scheme)) })
		})
	}
}

// TestMemOpensNoKV: "mem:" is a valid DSN that opens no backend, so its
// consumers run memory-only; a directory after it is still refused.
func TestMemOpensNoKV(t *testing.T) {
	if kv, err := Open("mem:"); kv != nil || err != nil {
		t.Fatalf(`Open("mem:") = (%v, %v), want (nil, nil)`, kv, err)
	}
	if _, err := Open("mem:" + t.TempDir()); err == nil {
		t.Fatal("mem DSN with a directory accepted")
	}
}

func testBatchRoundTrip(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	defer kv.Close()
	items := []Item{
		{Key: "a/1", Value: []byte("v1")},
		{Key: "a/2", Value: []byte("v2")},
		{Key: "b/1", Value: []byte("v3")},
	}
	if err := kv.PutBatch(items); err != nil {
		t.Fatalf("PutBatch: %v", err)
	}
	got, err := kv.GetBatch([]string{"a/1", "a/2", "b/1", "missing"})
	if err != nil {
		t.Fatalf("GetBatch: %v", err)
	}
	if len(got) != 3 {
		t.Fatalf("GetBatch returned %d keys, want 3", len(got))
	}
	if string(got["a/2"]) != "v2" {
		t.Fatalf("a/2 = %q, want v2", got["a/2"])
	}
	// Overwrite keeps latest; Delete removes and tolerates missing keys.
	if err := kv.PutBatch([]Item{{Key: "a/1", Value: []byte("v1b")}}); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := kv.Delete("a/2", "never-existed"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	got, _ = kv.GetBatch([]string{"a/1", "a/2"})
	if string(got["a/1"]) != "v1b" {
		t.Fatalf("a/1 = %q after overwrite, want v1b", got["a/1"])
	}
	if _, ok := got["a/2"]; ok {
		t.Fatal("a/2 survived Delete")
	}
	st := kv.Stats()
	if st.Puts != 4 || st.Deletes != 1 || st.LiveKeys != 2 || !st.Healthy {
		t.Fatalf("stats = %+v, want puts=4 deletes=1 live=2 healthy", st)
	}
}

func testCursorOrdering(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	defer kv.Close()
	// Inserted out of order on purpose; cursors must deliver byte order.
	for _, k := range []string{"p/c", "q/a", "p/a", "p/b", "q/b"} {
		if err := kv.PutBatch([]Item{{Key: k, Value: []byte(k)}}); err != nil {
			t.Fatal(err)
		}
	}
	cur, err := kv.Cursor("p/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var got []string
	for cur.Next() {
		got = append(got, cur.Key())
		if string(cur.Value()) != cur.Key() {
			t.Fatalf("value %q for key %q", cur.Value(), cur.Key())
		}
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"p/a", "p/b", "p/c"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cursor keys = %v, want %v (ascending, prefix-isolated)", got, want)
	}
	// Full-range cursor sees both prefixes, still ascending.
	all, _ := kv.Cursor("")
	defer all.Close()
	var n int
	prev := ""
	for all.Next() {
		if all.Key() <= prev {
			t.Fatalf("cursor order violated: %q after %q", all.Key(), prev)
		}
		prev = all.Key()
		n++
	}
	if n != 5 {
		t.Fatalf("full cursor saw %d keys, want 5", n)
	}
}

func testCompactPreserves(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	defer kv.Close()
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("k/%02d", i%10) // overwrites: history > live keys
		if err := kv.PutBatch([]Item{{Key: k, Value: []byte(fmt.Sprint(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if err := kv.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	got, err := kv.GetBatch([]string{"k/03"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k/03"]) != "43" {
		t.Fatalf("k/03 = %q after compact, want 43", got["k/03"])
	}
	if kv.Stats().LiveKeys != 10 {
		t.Fatalf("live keys = %d, want 10", kv.Stats().LiveKeys)
	}
}

func testClosedOps(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := kv.PutBatch([]Item{{Key: "x", Value: nil}}); err != ErrClosed {
		t.Fatalf("PutBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := kv.GetBatch([]string{"x"}); err != ErrClosed {
		t.Fatalf("GetBatch after Close = %v, want ErrClosed", err)
	}
	if _, err := kv.Cursor(""); err != ErrClosed {
		t.Fatalf("Cursor after Close = %v, want ErrClosed", err)
	}
	if err := kv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// testConcurrentStress runs writers, readers and cursor scans together;
// the -race build is the assertion.
func testConcurrentStress(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	defer kv.Close()
	const workers, ops = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := fmt.Sprintf("w%d/%03d", w, i)
				if err := kv.PutBatch([]Item{{Key: k, Value: []byte(k)}}); err != nil {
					t.Errorf("PutBatch: %v", err)
					return
				}
				if _, err := kv.GetBatch([]string{k}); err != nil {
					t.Errorf("GetBatch: %v", err)
					return
				}
				if i%10 == 0 {
					cur, err := kv.Cursor(fmt.Sprintf("w%d/", w))
					if err != nil {
						t.Errorf("Cursor: %v", err)
						return
					}
					for cur.Next() {
					}
					cur.Close()
				}
				if i%25 == 0 {
					_ = kv.Delete(fmt.Sprintf("w%d/%03d", w, i/2))
				}
			}
		}(w)
	}
	wg.Wait()
}

// testReplayAfterRestart proves durability: state written before Close is
// bitwise identical after a reopen, including deletes.
func testReplayAfterRestart(t *testing.T, dsn string) {
	kv := mustOpen(t, dsn)
	for i := 0; i < 20; i++ {
		if err := kv.PutBatch([]Item{{Key: fmt.Sprintf("k/%02d", i), Value: []byte(fmt.Sprint(i * i))}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := kv.Delete("k/07", "k/13"); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2 := mustOpen(t, dsn)
	defer kv2.Close()
	if kv2.Stats().LiveKeys != 18 {
		t.Fatalf("live keys after restart = %d, want 18", kv2.Stats().LiveKeys)
	}
	got, err := kv2.GetBatch([]string{"k/05", "k/07"})
	if err != nil {
		t.Fatal(err)
	}
	if string(got["k/05"]) != "25" {
		t.Fatalf("k/05 = %q after restart, want 25", got["k/05"])
	}
	if _, ok := got["k/07"]; ok {
		t.Fatal("deleted key k/07 came back after restart")
	}
}
