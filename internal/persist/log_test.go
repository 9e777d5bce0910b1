package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// forEachDurable runs fn once per DSN scheme the one WAL engine serves.
func forEachDurable(t *testing.T, fn func(t *testing.T, scheme string)) {
	for _, scheme := range []string{"log", "bolt"} {
		t.Run(scheme, func(t *testing.T) { fn(t, scheme) })
	}
}

func listNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

func fillLog(t *testing.T, kv KV, n int, liveKeys int) {
	t.Helper()
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k/%04d", i%liveKeys)
		if err := kv.PutBatch([]Item{{Key: k, Value: []byte(fmt.Sprint(i))}}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLogCompactionDropsHistory: after Compact, old segments and snapshots
// are gone and a reopen loads the snapshot instead of replaying history.
func TestLogCompactionDropsHistory(t *testing.T) {
	forEachDurable(t, testLogCompactionDropsHistory)
}

func testLogCompactionDropsHistory(t *testing.T, scheme string) {
	dir := t.TempDir()
	kv, err := Open(scheme + ":" + dir + "?segment=1024")
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, kv, 300, 10)
	if len(listNames(t, dir)) < 3 {
		t.Fatalf("expected several segments before compaction, got %v", listNames(t, dir))
	}
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := kv.Stats(); st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	var segs, snaps int
	for _, n := range listNames(t, dir) {
		switch {
		case strings.HasSuffix(n, ".log"):
			segs++
		case strings.HasSuffix(n, ".snap"):
			snaps++
		}
	}
	if segs != 1 || snaps != 1 {
		t.Fatalf("after compact: %d segments, %d snapshots (want 1 and 1): %v", segs, snaps, listNames(t, dir))
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv2, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	st := kv2.Stats()
	if st.OpenSnapshotKeys != 10 || st.OpenReplayedRecords != 0 {
		t.Fatalf("reopen loaded %d snapshot keys and replayed %d records, want 10 and 0", st.OpenSnapshotKeys, st.OpenReplayedRecords)
	}
	got, _ := kv2.GetBatch([]string{"k/0003"})
	if string(got["k/0003"]) != "293" {
		t.Fatalf("k/0003 = %q after compacted reopen, want 293", got["k/0003"])
	}
}

// TestLogTornSnapshotFallsBack: a snapshot torn by a crash mid-write fails
// its commit-trailer check and the open replays the full segment history
// instead — no data loss, because Snapshot alone never deletes segments.
func TestLogTornSnapshotFallsBack(t *testing.T) {
	forEachDurable(t, testLogTornSnapshotFallsBack)
}

func testLogTornSnapshotFallsBack(t *testing.T, scheme string) {
	dir := t.TempDir()
	kv, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, kv, 40, 8)
	if err := kv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the snapshot: chop bytes off its tail, eating the commit trailer.
	var snapPath string
	for _, n := range listNames(t, dir) {
		if strings.HasSuffix(n, ".snap") {
			snapPath = filepath.Join(dir, n)
		}
	}
	if snapPath == "" {
		t.Fatal("no snapshot written")
	}
	fi, err := os.Stat(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(snapPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	kv2, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	st := kv2.Stats()
	if st.OpenSnapshotKeys != 0 {
		t.Fatalf("torn snapshot loaded %d keys, want 0 (fallback to replay)", st.OpenSnapshotKeys)
	}
	if st.OpenReplayedRecords != 40 {
		t.Fatalf("fallback replayed %d records, want 40", st.OpenReplayedRecords)
	}
	got, _ := kv2.GetBatch([]string{"k/0007"})
	if string(got["k/0007"]) != "39" {
		t.Fatalf("k/0007 = %q after fallback, want 39", got["k/0007"])
	}
}

// TestLogTornTailTruncated: garbage appended to the newest segment (a
// crash mid-append) is truncated at open and subsequent appends extend
// valid data.
func TestLogTornTailTruncated(t *testing.T) {
	forEachDurable(t, testLogTornTailTruncated)
}

func testLogTornTailTruncated(t *testing.T, scheme string) {
	dir := t.TempDir()
	kv, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, kv, 5, 5)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(dir, "seg-00000001.log")
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	kv2, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	if kv2.Stats().LiveKeys != 5 {
		t.Fatalf("live keys = %d after torn tail, want 5", kv2.Stats().LiveKeys)
	}
	if err := kv2.PutBatch([]Item{{Key: "after", Value: []byte("crash")}}); err != nil {
		t.Fatal(err)
	}
	if err := kv2.Close(); err != nil {
		t.Fatal(err)
	}
	kv3, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv3.Close()
	got, _ := kv3.GetBatch([]string{"after"})
	if string(got["after"]) != "crash" {
		t.Fatal("append after torn-tail truncation did not survive")
	}
}

// TestLogLatchRecovery: a transient write failure latches the backend
// (surfaced in Stats), and the next write recovers instead of requiring a
// process restart.
func TestLogLatchRecovery(t *testing.T) {
	forEachDurable(t, testLogLatchRecovery)
}

func testLogLatchRecovery(t *testing.T, scheme string) {
	dir := t.TempDir()
	b, err := openWAL(scheme, dir, url.Values{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.PutBatch([]Item{{Key: "ok/1", Value: []byte("x")}}); err != nil {
		t.Fatal(err)
	}
	// Sabotage the file handle to simulate a transient I/O failure.
	b.mu.Lock()
	b.f.Close()
	b.mu.Unlock()
	if err := b.PutBatch([]Item{{Key: "fail/1", Value: []byte("y")}}); err == nil {
		t.Fatal("PutBatch on sabotaged handle succeeded")
	}
	if st := b.Stats(); st.Healthy || st.Err == "" {
		t.Fatalf("latched backend reports healthy: %+v", st)
	}
	// The next write recovers: truncate to last good, reopen, append.
	if err := b.PutBatch([]Item{{Key: "ok/2", Value: []byte("z")}}); err != nil {
		t.Fatalf("write after latch did not recover: %v", err)
	}
	if st := b.Stats(); !st.Healthy {
		t.Fatalf("backend still latched after recovery: %+v", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	kv, err := Open(scheme + ":" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	got, _ := kv.GetBatch([]string{"ok/1", "ok/2", "fail/1"})
	if string(got["ok/1"]) != "x" || string(got["ok/2"]) != "z" {
		t.Fatalf("recovered log lost committed data: %v", got)
	}
	if _, ok := got["fail/1"]; ok {
		t.Fatal("failed batch leaked into the log")
	}
}

// TestBoltAutoCompaction: once the uncovered log outgrows ?wal= the
// background compactor snapshots and drops it, and a reopen loads the
// snapshot instead of replaying history.
func TestBoltAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	kv, err := Open("bolt:" + dir + "?wal=2048")
	if err != nil {
		t.Fatal(err)
	}
	fillLog(t, kv, 200, 10)
	deadline := time.Now().Add(5 * time.Second)
	for kv.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	kv2, err := Open("bolt:" + dir)
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	st := kv2.Stats()
	if st.OpenSnapshotKeys != 10 {
		t.Fatalf("reopen loaded %d snapshot keys, want 10", st.OpenSnapshotKeys)
	}
	if st.OpenReplayedRecords > 200 {
		t.Fatalf("reopen replayed %d records; the snapshot should cover most history", st.OpenReplayedRecords)
	}
	got, _ := kv2.GetBatch([]string{"k/0009"})
	if string(got["k/0009"]) != "199" {
		t.Fatalf("k/0009 = %q after bolt reopen, want 199", got["k/0009"])
	}
}

// TestBoltCloseDuringAutoCompaction: writers keep the compactor kicked
// until the moment of Close, which must wait out an in-flight compaction
// and lose nothing.
func TestBoltCloseDuringAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	kv := mustOpen(t, "bolt:"+dir+"?wal=512")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := fmt.Sprintf("w%d/%02d", w, i%7)
				if err := kv.PutBatch([]Item{{Key: k, Value: []byte(fmt.Sprint(i))}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	if kv.Stats().Compactions == 0 {
		t.Fatal("auto-compaction never ran")
	}
	kv2 := mustOpen(t, "bolt:"+dir)
	defer kv2.Close()
	got := dump(t, kv2)
	for w := 0; w < 4; w++ {
		for j := 0; j < 7; j++ {
			want := fmt.Sprint(99 - (99-j)%7) // the last i < 100 with i%7 == j
			if k := fmt.Sprintf("w%d/%02d", w, j); got[k] != want {
				t.Fatalf("%s = %q after close mid-compaction, want %s", k, got[k], want)
			}
		}
	}
}

// TestOpenErrors: the DSN grammar rejects unknown schemes and missing
// directories with errors that name the alternatives.
func TestOpenErrors(t *testing.T) {
	if _, err := Open("nope:/tmp/x"); err == nil || !strings.Contains(err.Error(), "mem") {
		t.Fatalf("unknown scheme error should list known schemes, got %v", err)
	}
	if _, err := Open("no-scheme"); err == nil {
		t.Fatal("DSN without scheme accepted")
	}
	if _, err := Open("log:"); err == nil {
		t.Fatal("log DSN without directory accepted")
	}
	if _, err := Open("bolt:"); err == nil {
		t.Fatal("bolt DSN without directory accepted")
	}
	if _, err := Open("log:" + t.TempDir() + "?segment=bogus"); err == nil {
		t.Fatal("bad segment param accepted")
	}
	if _, err := Open("bolt:" + t.TempDir() + "?wal=bogus"); err == nil {
		t.Fatal("bad wal param accepted")
	}
}

// dump reads the whole keyspace through a cursor.
func dump(t *testing.T, kv KV) map[string]string {
	t.Helper()
	cur, err := kv.Cursor("")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	out := map[string]string{}
	for cur.Next() {
		out[cur.Key()] = string(cur.Value())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// copyFixture copies testdata/<name> somewhere writable: opening a
// directory creates or truncates files in it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	for _, n := range listNames(t, filepath.Join("testdata", name)) {
		raw, err := os.ReadFile(filepath.Join("testdata", name, n))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, n), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestParentLogDirectoryOpens: testdata/parent-log was written by the
// commit before the engines were folded together (37 puts over 10 keys
// with ?segment=256, a delete and a Compact after the 25th, a second
// delete at the end). Both schemes must open it to the same contents.
func TestParentLogDirectoryOpens(t *testing.T) {
	want := map[string]string{}
	for i := 0; i < 37; i++ {
		want[fmt.Sprintf("k/%04d", i%10)] = fmt.Sprintf("value-%03d", i)
	}
	delete(want, "k/0008")
	forEachDurable(t, func(t *testing.T, scheme string) {
		kv, err := Open(scheme + ":" + copyFixture(t, "parent-log"))
		if err != nil {
			t.Fatal(err)
		}
		defer kv.Close()
		if got := dump(t, kv); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("parent log: directory opened as\n%v\nwant\n%v", got, want)
		}
		if st := kv.Stats(); st.OpenSnapshotKeys != 9 || st.OpenReplayedRecords != 13 {
			t.Fatalf("opened from %d snapshot keys + %d records, want 9 + 13", st.OpenSnapshotKeys, st.OpenReplayedRecords)
		}
	})
}

// TestOldBoltLayoutRefused: testdata/parent-bolt is the same stream
// written by the parent's bolt: backend (index.db + wal-*.log). The
// engine cannot read that layout, so it must say so — naming it — rather
// than open an empty store beside the old data, and must leave the
// directory as it found it.
func TestOldBoltLayoutRefused(t *testing.T) {
	forEachDurable(t, func(t *testing.T, scheme string) {
		dir := copyFixture(t, "parent-bolt")
		before := listNames(t, dir)
		kv, err := Open(scheme + ":" + dir)
		if err == nil {
			kv.Close()
			t.Fatal("old bolt layout opened")
		}
		if !strings.Contains(err.Error(), "index.db") || !strings.Contains(err.Error(), "bolt layout") {
			t.Fatalf("error does not name the layout: %v", err)
		}
		if after := listNames(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
			t.Fatalf("refused open changed the directory: %v -> %v", before, after)
		}
	})
}

// TestSchemesShareOneDirectoryFormat: log: and bolt: are one engine, so
// either opens what the other wrote.
func TestSchemesShareOneDirectoryFormat(t *testing.T) {
	dir := t.TempDir()
	kv := mustOpen(t, "log:"+dir+"?segment=512")
	fillLog(t, kv, 60, 12)
	if err := kv.Delete("k/0004"); err != nil {
		t.Fatal(err)
	}
	want := dump(t, kv)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv = mustOpen(t, "bolt:"+dir)
	if got := dump(t, kv); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("bolt: sees %v in a log: directory, want %v", got, want)
	}
	if err := kv.PutBatch([]Item{{Key: "from/bolt", Value: []byte("b")}}); err != nil {
		t.Fatal(err)
	}
	if err := kv.Compact(); err != nil {
		t.Fatal(err)
	}
	want["from/bolt"] = "b"
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	kv = mustOpen(t, "log:"+dir)
	defer kv.Close()
	if got := dump(t, kv); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("log: sees %v after bolt: wrote and compacted, want %v", got, want)
	}
}

// legacyStoreRecord frames one record the way the retired store.LogBackend
// did: the same u32 length | u32 crc outer frame as this package, but a
// payload of u16 key length | key | u64 version | data — so the byte this
// package reads as the op is the low byte of the key length.
func legacyStoreRecord(key string, version uint64, data []byte) []byte {
	payload := binary.LittleEndian.AppendUint16(nil, uint16(len(key)))
	payload = append(payload, key...)
	payload = binary.LittleEndian.AppendUint64(payload, version)
	payload = append(payload, data...)
	rec := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return append(rec, payload...)
}

// TestForeignRecordIsCorruption: a checksum-valid record this format
// cannot interpret (here, a legacy store segment left in the directory)
// fails the open with an error naming the file. It used to be skipped —
// or, parsed as an overlong key, truncated away as a torn tail — and the
// store opened "successfully" with the data missing.
func TestForeignRecordIsCorruption(t *testing.T) {
	for name, key := range map[string]string{
		"unknown op":         "obj/5", // key length 5 reads as op 5
		"commit in segment":  "obj",   // reads as opCommit
		"key overruns value": "x",     // reads as opPut with a 30 KiB key
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			seg := filepath.Join(dir, "seg-00000001.log")
			raw := legacyStoreRecord(key, 1, []byte("legacy payload"))
			if err := os.WriteFile(seg, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			kv, err := Open("log:" + dir)
			if err == nil {
				kv.Close()
				t.Fatal("segment of foreign records opened")
			}
			if !strings.Contains(err.Error(), seg) {
				t.Fatalf("error does not name the file: %v", err)
			}
			if fi, err := os.Stat(seg); err != nil || fi.Size() != int64(len(raw)) {
				t.Fatalf("refused open altered the segment: %v, %v", fi, err)
			}
		})
	}
}

// TestTornHeaderAllocatesNothing: a torn header whose length field claims
// 2 GiB is a torn tail like any other — truncated at open — and the
// reader must see that from the file size, not by allocating the claim.
func TestTornHeaderAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	kv := mustOpen(t, "log:"+dir)
	fillLog(t, kv, 5, 5)
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00000001.log")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	hdr := binary.LittleEndian.AppendUint32(nil, 1<<31)
	hdr = append(hdr, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)
	if _, err := f.Write(hdr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	kv = mustOpen(t, "log:"+dir)
	runtime.ReadMemStats(&after)
	defer kv.Close()
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("open allocated %d MiB reading a torn header", grew>>20)
	}
	if kv.Stats().LiveKeys != 5 {
		t.Fatalf("live keys = %d after torn header, want 5", kv.Stats().LiveKeys)
	}
}
