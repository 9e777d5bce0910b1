package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func mustOpenDSN(t testing.TB, dsn string, opts Options) *HomeStore {
	t.Helper()
	s, err := OpenDSN(dsn, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// forEachDurable runs fn against each durable DSN scheme; open opens (or
// reopens) the scheme's store on one directory for the whole subtest.
func forEachDurable(t *testing.T, fn func(t *testing.T, dir string, open func(opts Options) *HomeStore)) {
	for _, scheme := range []string{"log", "bolt"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			fn(t, dir, func(opts Options) *HomeStore {
				t.Helper()
				return mustOpenDSN(t, scheme+":"+dir+"?segment=512", opts) // roll after ~half a KiB
			})
		})
	}
}

// TestDurableReopenRecoversState: Put through a durable backend, close,
// reopen — versions, retention, and delta replies all survive.
func TestDurableReopenRecoversState(t *testing.T) {
	forEachDurable(t, testDurableReopenRecoversState)
}

func testDurableReopenRecoversState(t *testing.T, dir string, open func(Options) *HomeStore) {
	opts := Options{Retain: 3, BlockSize: 32}

	s := open(opts)
	data := putVersions(t, s, "o", 5, 4096) // versions 1..5, retain keeps 2..5
	mustPut(t, s, "other", []byte("second key"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := open(opts)
	defer re.Close()
	cur, err := re.Current("o")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Num != 5 || !bytes.Equal(cur.Data, data) {
		t.Fatalf("recovered version %d (%d bytes), want 5 (%d bytes)", cur.Num, len(cur.Data), len(data))
	}
	versions, err := re.retainedVersions("o")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 4 || versions[0] != 2 || versions[3] != 5 {
		t.Fatalf("recovered retention window %v", versions)
	}
	if v, err := re.Current("other"); err != nil || string(v.Data) != "second key" {
		t.Fatalf("second key lost: %v %q", err, v.Data)
	}
	// Delta replies work against recovered bases and validate on a replica.
	reply, err := re.Get("o", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.IsDelta() {
		t.Fatal("recovered store should serve a delta from a retained base")
	}
	// Puts continue from the recovered version counter.
	if v := mustPut(t, re, "o", append(data, 'z')); v != 6 {
		t.Fatalf("post-recovery Put got version %d, want 6", v)
	}
}

// TestDurableCrashMidPut simulates a kill mid-Put: a torn, partially
// written record at the log tail. Reopening must truncate the torn tail
// and serve the pre-crash latest versions, with delta replies that still
// validate against replicas.
func TestDurableCrashMidPut(t *testing.T) {
	forEachDurable(t, testDurableCrashMidPut)
}

func testDurableCrashMidPut(t *testing.T, dir string, open func(Options) *HomeStore) {
	opts := Options{Retain: 4, BlockSize: 32}

	s := open(opts)
	rep := NewReplica()
	data := putVersions(t, s, "o", 3, 4096)
	if err := rep.Pull(s, "o"); err != nil { // replica at version 3
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The crash: a version-4 Put died after writing half its record.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	last := segs[len(segs)-1]
	// A record header promising 4 KiB, then only half of it.
	torn := binary.LittleEndian.AppendUint32(nil, 4096)
	torn = append(torn, 0xde, 0xad, 0xbe, 0xef)
	torn = append(torn, bytes.Repeat([]byte("q"), 2048)...)
	f, err := os.OpenFile(last, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	re := open(opts)
	defer re.Close()
	cur, err := re.Current("o")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Num != 3 || !bytes.Equal(cur.Data, data) {
		t.Fatalf("post-crash latest is %d, want the fully-written version 3", cur.Num)
	}

	// New data goes on top of the recovered state; the surviving replica
	// pulls the change as a delta that applies cleanly.
	next := append([]byte(nil), data...)
	next[17] ^= 0xff
	if v := mustPut(t, re, "o", next); v != 4 {
		t.Fatalf("post-crash Put version %d, want 4", v)
	}
	before := rep.BytesReceived()
	if err := rep.Pull(re, "o"); err != nil {
		t.Fatal(err)
	}
	if got, _ := rep.Data("o"); !bytes.Equal(got, next) {
		t.Fatal("replica diverged after crash recovery")
	}
	if cost := rep.BytesReceived() - before; cost >= int64(len(next))/2 {
		t.Fatalf("post-recovery pull cost %d bytes; expected a delta", cost)
	}
}

// TestDurableSegmentRoll forces tiny segments and verifies the log
// rolls to new files while replay still reconstructs everything in order.
func TestDurableSegmentRoll(t *testing.T) {
	forEachDurable(t, testDurableSegmentRoll)
}

func testDurableSegmentRoll(t *testing.T, dir string, open func(Options) *HomeStore) {
	s := open(Options{Retain: 8})
	var want []byte
	for i := 0; i < 6; i++ {
		want = bytes.Repeat([]byte{byte('a' + i)}, 256)
		mustPut(t, s, "o", want)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected multiple segments, found %d", len(segs))
	}

	re := open(Options{Retain: 8})
	defer re.Close()
	cur, err := re.Current("o")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Num != 6 || !bytes.Equal(cur.Data, want) {
		t.Fatalf("multi-segment replay got version %d", cur.Num)
	}
	versions, err := re.retainedVersions("o")
	if err != nil {
		t.Fatal(err)
	}
	if len(versions) != 6 || versions[0] != 1 {
		t.Fatalf("replayed retention %v", versions)
	}
}

// TestPutKeepsThePayload: a 32 KiB Put on a log: KV allocates a small
// fraction of its payload, because the version and the log's table both
// hold the caller's buffer. A copy in either costs the payload per Put.
func TestPutKeepsThePayload(t *testing.T) {
	const size, puts = 32 << 10, 100
	s := mustOpenDSN(t, "log:"+t.TempDir(), Options{})
	defer s.Close()
	payloads := make([][]byte, puts+1)
	for i := range payloads {
		payloads[i] = bigObject(int64(i), size)
	}
	mustPut(t, s, "o", payloads[puts]) // the log's write buffer grows to a record once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range payloads[:puts] {
		mustPut(t, s, "o", p)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / puts
	if per >= size/4 {
		t.Fatalf("a %d-byte Put allocated %d bytes, want under a quarter of the payload", size, per)
	}
	t.Logf("a %d-byte Put allocated %d bytes", size, per)
	if cur, err := s.Current("o"); err != nil || !bytes.Equal(cur.Data, payloads[puts-1]) {
		t.Fatalf("latest version is not the last payload: %v", err)
	}
}

// TestDurableRejectsAfterClose: Puts must surface the backend error and
// leave the in-memory state unchanged.
func TestDurableRejectsAfterClose(t *testing.T) {
	forEachDurable(t, testDurableRejectsAfterClose)
}

func testDurableRejectsAfterClose(t *testing.T, dir string, open func(Options) *HomeStore) {
	s := open(Options{})
	mustPut(t, s, "o", []byte("v1"))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("o", []byte("v2")); err == nil {
		t.Fatal("Put after Close must fail on a durable backend")
	}
	// The failed Put must not have advanced the in-memory version either.
	cur, err := s.Current("o")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Num != 1 || string(cur.Data) != "v1" {
		t.Fatalf("failed Put leaked state: version %d %q", cur.Num, cur.Data)
	}
}
