package store

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"coda/internal/delta"
)

// TestStaleFullReplyRejected pins the cache-regression fix: a full reply
// whose version is OLDER than what the replica already holds (a delayed or
// replayed response) must be rejected instead of silently rolling the
// cache back, while re-applying the exact version held stays idempotent.
func TestStaleFullReplyRejected(t *testing.T) {
	s := NewHomeStore(Options{})
	mustPut(t, s, "o", []byte("version-one"))
	mustPut(t, s, "o", []byte("version-two"))

	rep := NewReplica()
	if err := rep.Pull(s, "o"); err != nil {
		t.Fatal(err)
	}
	if rep.VersionOf("o") != 2 {
		t.Fatalf("replica at version %d", rep.VersionOf("o"))
	}
	applied := rep.BytesReceived()

	// A delayed full reply for version 1 arrives late: reject it.
	stale := &Reply{Key: "o", Version: 1, Full: []byte("version-one")}
	if err := rep.ApplyReply(stale); err == nil {
		t.Fatal("stale full reply must be rejected")
	}
	if rep.VersionOf("o") != 2 {
		t.Fatalf("stale reply regressed replica to version %d", rep.VersionOf("o"))
	}
	if got, _ := rep.Data("o"); !bytes.Equal(got, []byte("version-two")) {
		t.Fatalf("stale reply overwrote data: %q", got)
	}
	if rep.BytesReceived() != applied {
		t.Fatalf("rejected stale reply inflated BytesReceived %d -> %d", applied, rep.BytesReceived())
	}

	// Re-applying the same version (a retry of the last transfer) is
	// idempotent and allowed.
	same := &Reply{Key: "o", Version: 2, Full: []byte("version-two")}
	if err := rep.ApplyReply(same); err != nil {
		t.Fatalf("same-version re-apply must stay idempotent: %v", err)
	}
	if got, _ := rep.Data("o"); !bytes.Equal(got, []byte("version-two")) {
		t.Fatalf("re-apply corrupted data: %q", got)
	}
	if rep.VersionOf("o") != 2 {
		t.Fatalf("re-apply moved version to %d", rep.VersionOf("o"))
	}

	// A genuinely newer full reply still applies.
	newer := &Reply{Key: "o", Version: 3, Full: []byte("version-three")}
	if err := rep.ApplyReply(newer); err != nil {
		t.Fatal(err)
	}
	if rep.VersionOf("o") != 3 {
		t.Fatalf("newer reply not applied, version %d", rep.VersionOf("o"))
	}
}

// TestDeltaReplyMustMoveForward: a delta's version and base arrive in
// separate headers, so a reply can name a target at or below its base. It
// applies cleanly to the base and would move the replica backwards; it is
// refused with both versions named, and nothing is counted.
func TestDeltaReplyMustMoveForward(t *testing.T) {
	s := NewHomeStore(Options{BlockSize: 16})
	base := bigObject(7, 1024)
	mustPut(t, s, "o", base)
	mustPut(t, s, "o", base)
	mustPut(t, s, "o", base)
	rep := NewReplica()
	if err := rep.Pull(s, "o"); err != nil {
		t.Fatal(err)
	}
	received := rep.BytesReceived()
	for _, target := range []uint64{3, 2} {
		bad := &Reply{Key: "o", Version: target, BaseVersion: 3, Delta: delta.Compute(base, base, 16)}
		err := rep.ApplyReply(bad)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d from base 3", target)) {
			t.Fatalf("delta 3 -> %d: %v, want a refusal naming both versions", target, err)
		}
	}
	if rep.VersionOf("o") != 3 || rep.BytesReceived() != received {
		t.Fatalf("refused deltas left the replica at version %d with %d bytes counted, want 3 and %d",
			rep.VersionOf("o"), rep.BytesReceived(), received)
	}
}
