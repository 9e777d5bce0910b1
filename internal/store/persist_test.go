package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"coda/internal/persist"
)

// TestOpenDSNCrashRecovery: the store over the shared persistence layer
// recovers its exact state at reopen — same versions, same retention
// window, delta replies still working against replayed bases.
func TestOpenDSNCrashRecovery(t *testing.T) {
	for _, scheme := range []string{"log", "bolt"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			dsn := scheme + ":" + dir
			s, err := OpenDSN(dsn, Options{Retain: 3, BlockSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			var last []byte
			for i := 0; i < 6; i++ {
				last = bytes.Repeat([]byte{byte('a' + i)}, 64)
				if _, err := s.Put("obj/1", last); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := s.Put("obj two", []byte("with spaces/and/slashes")); err != nil {
				t.Fatal(err)
			}
			retained, _ := s.RetainedVersions("obj/1")
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := OpenDSN(dsn, Options{Retain: 3, BlockSize: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			cur, err := s2.Current("obj/1")
			if err != nil {
				t.Fatal(err)
			}
			if cur.Num != 6 || !bytes.Equal(cur.Data, last) {
				t.Fatalf("recovered version %d (%d bytes), want 6 (%d bytes)", cur.Num, len(cur.Data), len(last))
			}
			retained2, _ := s2.RetainedVersions("obj/1")
			if fmt.Sprint(retained) != fmt.Sprint(retained2) {
				t.Fatalf("retention window changed across restart: %v vs %v", retained, retained2)
			}
			cur2, err := s2.Current("obj two")
			if err != nil || string(cur2.Data) != "with spaces/and/slashes" {
				t.Fatalf("escaped key did not round-trip: %v %q", err, cur2.Data)
			}
			// Delta replies work against replayed bases.
			reply, err := s2.Get("obj/1", retained2[0])
			if err != nil {
				t.Fatal(err)
			}
			if reply.Version != 6 {
				t.Fatalf("reply version %d, want 6", reply.Version)
			}
			// Puts continue after recovery with the next version number.
			n, err := s2.Put("obj/1", []byte("post-restart"))
			if err != nil || n != 7 {
				t.Fatalf("post-restart Put = (%d, %v), want (7, nil)", n, err)
			}
		})
	}
}

// TestKVBackendTrimsRetention: versions evicted by the retention window
// leave the backend too, so compacted durable state tracks what the store
// serves, not total history.
func TestKVBackendTrimsRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDSN("log:"+dir, Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Put("k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.CompactBackend(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenDSN("log:"+dir, Options{Retain: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	retained, err := s2.RetainedVersions("k")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(retained) != fmt.Sprint([]uint64{8, 9, 10}) {
		t.Fatalf("retained after trim+compact+reopen = %v, want [8 9 10]", retained)
	}
}

// TestStatsBackendHealth: the backend name and health surface through
// Stats (and from there /healthz).
func TestStatsBackendHealth(t *testing.T) {
	s := NewHomeStore(Options{})
	st := s.Stats()
	if st.Backend != "mem" || !st.BackendHealthy {
		t.Fatalf("mem stats = %+v", st)
	}
	dir := t.TempDir()
	s2, err := OpenDSN("log:"+dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if st := s2.Stats(); st.Backend != "log" || !st.BackendHealthy {
		t.Fatalf("log stats = %+v", st)
	}

	// A latched KV (persist's TestLogLatchRecovery drives the real latch)
	// reaches Stats with its error.
	kv, err := persist.Open("log:" + t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s3, err := Open(Options{}, latchedKV{kv})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if st := s3.Stats(); st.BackendHealthy || !strings.Contains(st.BackendErr, "disk on fire") {
		t.Fatalf("latched stats = %+v", st)
	}
}

// latchedKV reports the accounting of a KV whose last write failed.
type latchedKV struct{ persist.KV }

func (k latchedKV) Stats() persist.Stats {
	st := k.KV.Stats()
	st.Healthy, st.Err = false, "disk on fire"
	return st
}

// TestEachStreamsKeys: Each visits every key exactly once and stops early
// when told to.
func TestEachStreamsKeys(t *testing.T) {
	s := NewHomeStore(Options{})
	for i := 0; i < 20; i++ {
		if _, err := s.Put(fmt.Sprintf("k%02d", i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	seen := map[string]int{}
	s.Each(func(k string) bool { seen[k]++; return true })
	if len(seen) != 20 {
		t.Fatalf("Each visited %d keys, want 20", len(seen))
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %s visited %d times", k, n)
		}
	}
	var n int
	s.Each(func(string) bool { n++; return n < 5 })
	if n != 5 {
		t.Fatalf("early-stopped Each visited %d keys, want 5", n)
	}
	if len(s.Keys()) != 20 {
		t.Fatalf("Keys() = %d entries, want 20", len(s.Keys()))
	}
}

// TestReplicaSyncAll: the streaming full-sync pulls every object without
// materializing the keyspace.
func TestReplicaSyncAll(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 16})
	for i := 0; i < 10; i++ {
		if _, err := s.Put(fmt.Sprintf("obj%d", i), bytes.Repeat([]byte{byte(i)}, 32)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReplica()
	n, err := r.SyncAll(s)
	if err != nil || n != 10 {
		t.Fatalf("SyncAll = (%d, %v), want (10, nil)", n, err)
	}
	for i := 0; i < 10; i++ {
		data, ok := r.Data(fmt.Sprintf("obj%d", i))
		if !ok || !bytes.Equal(data, bytes.Repeat([]byte{byte(i)}, 32)) {
			t.Fatalf("replica missing obj%d after SyncAll", i)
		}
	}
	// A second sync is all unchanged replies.
	before := r.BytesReceived()
	if _, err := r.SyncAll(s); err != nil {
		t.Fatal(err)
	}
	if delta := r.BytesReceived() - before; delta != 10*unchangedWireBytes {
		t.Fatalf("resync transferred %d bytes, want %d (all unchanged)", delta, 10*unchangedWireBytes)
	}
}

// TestOpenDSNMemMapsToNativeBackend: "mem:" opens no KV, so the store is
// memory-only (the shards are the only copy) and still accepts writes.
func TestOpenDSNMemMapsToNativeBackend(t *testing.T) {
	s, err := OpenDSN("mem:", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Backend() != "mem" {
		t.Fatalf("backend = %q, want mem", s.Backend())
	}
	if _, err := s.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDeletesTrimmedVersions: versions the retention window drops
// during replay (here because Retain was lowered between opens) leave the
// KV at open, so no later open replays them and no compaction snapshots
// them again.
func TestReplayDeletesTrimmedVersions(t *testing.T) {
	dsn := "log:" + t.TempDir()
	s := mustOpenDSN(t, dsn, Options{Retain: 4})
	putVersions(t, s, "k", 6, 64) // v2..v6 stay in the KV
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	kv, err := persist.Open(dsn)
	if err != nil {
		t.Fatal(err)
	}
	s, err = Open(Options{Retain: 1}, kv)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mustPut(t, s, "k", []byte("v7"))
	if err := s.CompactBackend(); err != nil {
		t.Fatal(err)
	}
	cur, err := kv.Cursor("o/k/")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	var live []string
	for cur.Next() {
		live = append(live, cur.Key())
	}
	if want := []string{encodeVersionKey("k", 6), encodeVersionKey("k", 7)}; fmt.Sprint(live) != fmt.Sprint(want) {
		t.Fatalf("live version keys %v, want %v", live, want)
	}
}

// FuzzVersionKey: the o/<escaped>/<hex> KV key round-trips any object key
// and version, sorts one key's versions numerically, and decoding any
// input never panics. Seeds (testdata/fuzz/FuzzVersionKey) cover hostile
// keys and the hex-width boundaries.
func FuzzVersionKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, key string, n1, n2 uint64, raw string) {
		_, _, _ = decodeVersionKey(raw)
		for _, n := range []uint64{n1, n2} {
			k, num, err := decodeVersionKey(encodeVersionKey(key, n))
			if err != nil || k != key || num != n {
				t.Fatalf("round-trip (%q, %d): got (%q, %d, %v)", key, n, k, num, err)
			}
		}
		if (n1 < n2) != (encodeVersionKey(key, n1) < encodeVersionKey(key, n2)) {
			t.Fatalf("order of versions %d, %d of %q differs from their key order", n1, n2, key)
		}
	})
}
