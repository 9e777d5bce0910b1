package store

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// mustPut is the test shorthand for Puts that must succeed.
func mustPut(t testing.TB, s ObjectStore, key string, data []byte) uint64 {
	t.Helper()
	v, err := s.Put(key, data)
	if err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
	return v
}

func TestPutVersionNumbersMonotonic(t *testing.T) {
	s := NewHomeStore(Options{})
	if v := mustPut(t, s, "o1", []byte("v1")); v != 1 {
		t.Fatalf("first Put version %d", v)
	}
	if v := mustPut(t, s, "o1", []byte("v2")); v != 2 {
		t.Fatalf("second Put version %d", v)
	}
	if v := mustPut(t, s, "o2", []byte("x")); v != 1 {
		t.Fatalf("other object version %d", v)
	}
	cur, err := s.Current("o1")
	if err != nil {
		t.Fatal(err)
	}
	if cur.Num != 2 || string(cur.Data) != "v2" {
		t.Fatalf("current = %d %q", cur.Num, cur.Data)
	}
}

func TestGetUnknownKey(t *testing.T) {
	s := NewHomeStore(Options{})
	if _, err := s.Get("missing", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	if _, err := s.Current("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
}

func bigObject(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestDeltaReplyForSmallEdit(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 64})
	v1 := bigObject(1, 8192)
	s.Put("o1", v1)
	v2 := append([]byte(nil), v1...)
	v2[4000] ^= 0xff
	s.Put("o1", v2)

	reply, err := s.Get("o1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.IsDelta() {
		t.Fatal("small edit should produce a delta reply")
	}
	if reply.BaseVersion != 1 || reply.Version != 2 {
		t.Fatalf("delta base %d target %d", reply.BaseVersion, reply.Version)
	}
	if reply.WireBytes() >= len(v2)/2 {
		t.Fatalf("delta %d bytes not considerably smaller than %d", reply.WireBytes(), len(v2))
	}
	stats := s.Stats()
	if stats.DeltaReplies != 1 || stats.SavedBytes <= 0 {
		t.Fatalf("stats %+v", stats)
	}
}

func TestFullReplyWhenDeltaTooLarge(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 64, FullFraction: 0.5})
	s.Put("o1", bigObject(2, 4096))
	s.Put("o1", bigObject(3, 4096)) // unrelated content: delta won't pay
	reply, err := s.Get("o1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.IsDelta() {
		t.Fatal("random rewrite should fall back to full reply")
	}
	if s.Stats().FullReplies != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestFullReplyForNewClient(t *testing.T) {
	s := NewHomeStore(Options{})
	s.Put("o1", []byte("data"))
	reply, err := s.Get("o1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.IsDelta() || string(reply.Full) != "data" {
		t.Fatal("client with no version must get the full object")
	}
}

func TestRetentionWindow(t *testing.T) {
	s := NewHomeStore(Options{Retain: 2})
	for i := 0; i < 6; i++ {
		s.Put("o1", bigObject(int64(i), 512))
	}
	versions, err := s.RetainedVersions("o1")
	if err != nil {
		t.Fatal(err)
	}
	// Retain=2 past versions + latest = 3.
	if len(versions) != 3 || versions[2] != 6 || versions[0] != 4 {
		t.Fatalf("retained %v", versions)
	}
	// A client on an evicted version gets a full reply.
	reply, err := s.Get("o1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reply.IsDelta() {
		t.Fatal("evicted base must force a full reply")
	}
}

func TestDeltaCacheInvalidatedOnPut(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 32})
	base := bytes.Repeat([]byte("abcd1234"), 256)
	s.Put("o1", base)
	v2 := append(append([]byte(nil), base...), []byte("tail-1")...)
	s.Put("o1", v2)
	r1, err := s.Get("o1", 1)
	if err != nil {
		t.Fatal(err)
	}
	v3 := append(append([]byte(nil), base...), []byte("different-tail-22")...)
	s.Put("o1", v3)
	r2, err := s.Get("o1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Version != 3 {
		t.Fatalf("after new put, reply version %d", r2.Version)
	}
	// Apply both replies on a replica to confirm neither is stale.
	rep := NewReplica()
	full, err := s.Get("o1", 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = full
	_ = r1
	repl := NewReplica()
	if err := repl.ApplyReply(&Reply{Key: "o1", Version: 1, Full: base}); err != nil {
		t.Fatal(err)
	}
	if r2.IsDelta() {
		if err := repl.ApplyReply(r2); err != nil {
			t.Fatal(err)
		}
		got, _ := repl.Data("o1")
		if !bytes.Equal(got, v3) {
			t.Fatal("delta from cache is stale")
		}
	}
	_ = rep
}

func TestReplicaPullCycle(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 64})
	rep := NewReplica()
	v1 := bigObject(7, 8192)
	s.Put("data", v1)
	if err := rep.Pull(s, "data"); err != nil {
		t.Fatal(err)
	}
	got, ok := rep.Data("data")
	if !ok || !bytes.Equal(got, v1) {
		t.Fatal("first pull should deliver full object")
	}
	firstBytes := rep.BytesReceived()

	// Small update: second pull must use a delta and cost far less.
	v2 := append([]byte(nil), v1...)
	copy(v2[100:110], []byte("0123456789"))
	s.Put("data", v2)
	if err := rep.Pull(s, "data"); err != nil {
		t.Fatal(err)
	}
	got, _ = rep.Data("data")
	if !bytes.Equal(got, v2) {
		t.Fatal("replica out of sync after delta pull")
	}
	deltaBytes := rep.BytesReceived() - firstBytes
	if deltaBytes >= int64(len(v2))/2 {
		t.Fatalf("delta pull cost %d bytes for %d-byte object", deltaBytes, len(v2))
	}
	if rep.VersionOf("data") != 2 {
		t.Fatalf("replica version %d", rep.VersionOf("data"))
	}
	// A pull while already current costs only the unchanged header (see
	// TestUnchangedReply for the detailed accounting).
	if err := rep.Pull(s, "data"); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaRejectsMismatchedDelta(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 32})
	v1 := bytes.Repeat([]byte("abcdefgh"), 128)
	s.Put("o", v1)
	v2 := append(append([]byte(nil), v1...), 'x')
	s.Put("o", v2)
	reply, err := s.Get("o", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.IsDelta() {
		t.Skip("delta did not pay off; nothing to test")
	}
	rep := NewReplica() // has no base version
	if err := rep.ApplyReply(reply); err == nil {
		t.Fatal("delta against missing base must fail")
	}
}

// TestApplyReplyRejectedCountsNoBytes pins the S1 accounting fix:
// replies the replica rejects (version-mismatch unchanged or delta)
// must leave BytesReceived untouched, so bandwidth numbers count only
// payloads that were actually applied.
func TestApplyReplyRejectedCountsNoBytes(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 32})
	v1 := bytes.Repeat([]byte("abcdefgh"), 128)
	s.Put("o", v1)
	v2 := append(append([]byte(nil), v1...), 'x')
	s.Put("o", v2)

	rep := NewReplica()
	full, err := s.Get("o", 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyReply(full); err != nil {
		t.Fatal(err)
	}
	applied := rep.BytesReceived()
	if applied != int64(len(v2)) {
		t.Fatalf("applied full reply counted %d bytes, want %d", applied, len(v2))
	}

	// A delta against a base the replica does not hold is rejected and
	// must not count.
	deltaReply, err := s.Get("o", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !deltaReply.IsDelta() {
		t.Skip("delta did not pay off; nothing to test")
	}
	ghost := NewReplica()
	if err := ghost.ApplyReply(deltaReply); err == nil {
		t.Fatal("delta against missing base must fail")
	}
	if got := ghost.BytesReceived(); got != 0 {
		t.Fatalf("rejected delta inflated BytesReceived to %d", got)
	}

	// An unchanged reply for a version the replica does not have is
	// rejected and must not count either.
	if err := rep.ApplyReply(&Reply{Key: "o", Version: 99, Unchanged: true}); err == nil {
		t.Fatal("unchanged reply for wrong version must fail")
	}
	if got := rep.BytesReceived(); got != applied {
		t.Fatalf("rejected unchanged reply moved BytesReceived %d -> %d", applied, got)
	}

	// A valid unchanged reply still counts its fixed header cost.
	cur, err := s.Get("o", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Unchanged {
		t.Fatalf("reply for current version not unchanged: %+v", cur)
	}
	if err := rep.ApplyReply(cur); err != nil {
		t.Fatal(err)
	}
	if got := rep.BytesReceived(); got != applied+int64(cur.WireBytes()) {
		t.Fatalf("unchanged reply accounting %d, want %d", got, applied+int64(cur.WireBytes()))
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := NewHomeStore(Options{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := []string{"a", "b", "c"}[g%3]
				s.Put(key, bigObject(int64(g*100+i), 256))
				if _, err := s.Get(key, 0); err != nil {
					t.Errorf("get: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Property: a replica that always pulls after each put converges to the
// latest data regardless of edit pattern, and delta replies never corrupt it.
func TestReplicaConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewHomeStore(Options{BlockSize: 32, Retain: 3})
		rep := NewReplica()
		data := make([]byte, 512+rng.Intn(1024))
		rng.Read(data)
		for step := 0; step < 8; step++ {
			// Mutate.
			for k := 0; k < 1+rng.Intn(20); k++ {
				data[rng.Intn(len(data))] ^= byte(rng.Intn(256))
			}
			s.Put("obj", data)
			// Sometimes skip pulls so the replica falls behind versions.
			if rng.Intn(3) == 0 {
				continue
			}
			if err := rep.Pull(s, "obj"); err != nil {
				return false
			}
			got, ok := rep.Data("obj")
			if !ok || !bytes.Equal(got, data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUnchangedReply(t *testing.T) {
	s := NewHomeStore(Options{})
	data := bigObject(42, 4096)
	v := mustPut(t, s, "o", data)
	rep := NewReplica()
	if err := rep.Pull(s, "o"); err != nil {
		t.Fatal(err)
	}
	first := rep.BytesReceived()
	// Pulling while already current must cost only the unchanged header.
	reply, err := s.Get("o", v)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Unchanged || reply.Full != nil || reply.IsDelta() {
		t.Fatalf("want unchanged reply, got %+v", reply)
	}
	if err := rep.Pull(s, "o"); err != nil {
		t.Fatal(err)
	}
	if cost := rep.BytesReceived() - first; cost > 64 {
		t.Fatalf("redundant pull cost %d bytes", cost)
	}
	got, _ := rep.Data("o")
	if !bytes.Equal(got, data) {
		t.Fatal("unchanged pull corrupted the replica")
	}
	// Unchanged reply against a replica on a different version is rejected.
	stale := NewReplica()
	if err := stale.ApplyReply(&Reply{Key: "o", Version: v, Unchanged: true}); err == nil {
		t.Fatal("want version mismatch error")
	}
}
