package replication

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/delta"
	"coda/internal/store"
)

// countingStore counts the Gets the fanout makes.
type countingStore struct {
	store.ObjectStore
	gets atomic.Int64
}

func (c *countingStore) Get(key string, have uint64) (*store.Reply, error) {
	c.gets.Add(1)
	return c.ObjectStore.Get(key, have)
}

// replicaSub is a subscriber holding a copy of the object: it applies what
// it is pushed and, when told to, acknowledges the version it now holds.
type replicaSub struct {
	lease *Lease
	ack   bool

	mu      sync.Mutex
	data    []byte
	version uint64
	last    Update
}

func (r *replicaSub) Deliver(u Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.last = u
	switch rep := u.Reply; {
	case rep == nil || rep.Unchanged:
		return
	case rep.IsDelta():
		if rep.BaseVersion != r.version {
			panic(fmt.Sprintf("delta against base %d pushed to a replica holding %d", rep.BaseVersion, r.version))
		}
		out, err := delta.Apply(r.data, rep.Delta)
		if err != nil {
			panic(err)
		}
		r.data = out
	default:
		r.data = append([]byte(nil), rep.Full...)
	}
	r.version = u.Version
	if r.ack {
		r.lease.AckVersion(u.Version)
	}
}

func (r *replicaSub) snapshot() (data []byte, version uint64, last Update) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.data, r.version, r.last
}

// The sharing contract: a publish reads the store once per distinct
// (mode, acked version) group among the key's live leases — not once per
// lease — on both the synchronous and the worker-pool manager; every
// lease's frame is still right for the base that lease acknowledged; and
// the leases of one group are handed the very same Reply.
func TestFanoutBuildsOncePerGroup(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, groups := range []int{1, 3} {
			t.Run(fmt.Sprintf("workers=%d/groups=%d", workers, groups), func(t *testing.T) {
				cs := &countingStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 16, Retain: 3})}
				m := NewManagerWith(cs, nil, Config{Workers: workers})
				defer m.Close()
				publish := func(data []byte) (gets int64, builds int64) {
					t.Helper()
					g0, b0 := cs.gets.Load(), mUpdateBuilds.Value()
					if _, err := m.Publish("doc", data); err != nil {
						t.Fatal(err)
					}
					m.Flush()
					return cs.gets.Load() - g0, mUpdateBuilds.Value() - b0
				}
				content := func(v int) []byte {
					b := bytes.Repeat([]byte("0123456789abcdef"), 64)
					copy(b[16*v:], fmt.Sprintf("<edit %06d>", v))
					return b
				}
				for v := 1; v <= 5; v++ { // versions 1..5; Retain 3 leaves 3..5 as delta bases
					publish(content(v))
				}

				// Group 1 acks what it is pushed, so it stays one group. With
				// three groups, group 2 never acks and is seeded with an evicted
				// base (full value every time) and group 3 wants whole values.
				const perGroup = 8
				var subs []*replicaSub
				add := func(mode PushMode, have uint64, ack bool) {
					t.Helper()
					s := &replicaSub{ack: ack}
					l, err := m.Subscribe("doc", fmt.Sprintf("c%d", len(subs)), mode, time.Hour, s)
					if err != nil {
						t.Fatal(err)
					}
					s.lease = l
					if have > 0 {
						s.data, s.version = content(int(have)), have
						l.AckVersion(have)
					}
					subs = append(subs, s)
				}
				for i := 0; i < perGroup; i++ {
					add(PushDelta, 5, true)
					if groups == 3 {
						add(PushDelta, 1, false)
						add(PushValue, 0, false)
					}
				}

				for v := 6; v <= 8; v++ {
					want := content(v)
					gets, builds := publish(want)
					if gets != int64(groups) || builds != int64(groups) {
						t.Fatalf("version %d: %d store reads and %d builds for %d leases in %d groups",
							v, gets, builds, len(subs), groups)
					}
					for i, s := range subs {
						data, version, last := s.snapshot()
						if groups == 3 && i%3 == 1 {
							// The evicted-base group never applied anything it can
							// ack; what it is pushed must be the whole value.
							if last.Reply == nil || last.Reply.IsDelta() || !bytes.Equal(last.Reply.Full, want) {
								t.Fatalf("version %d: lease %d acked an evicted base, want the full value, got %+v", v, i, last.Reply)
							}
							continue
						}
						if version != uint64(v) || !bytes.Equal(data, want) {
							t.Fatalf("version %d: lease %d holds version %d, %d bytes; its frame did not reproduce the publish", v, i, version, len(data))
						}
					}
					// Same group, same object: pointer-identical, not merely equal.
					stride := 1
					if groups == 3 {
						stride = 3
					}
					for g := 0; g < stride; g++ {
						_, _, first := subs[g].snapshot()
						for i := g + stride; i < len(subs); i += stride {
							if _, _, u := subs[i].snapshot(); u.Reply != first.Reply {
								t.Fatalf("version %d: leases %d and %d are one group but got different Reply objects", v, g, i)
							}
						}
					}
				}
				_, _, u := subs[0].snapshot()
				if !u.Reply.IsDelta() || u.Reply.BaseVersion != 7 {
					t.Fatalf("acking group's last frame %+v, want a delta against version 7", u.Reply)
				}

				// One lease acks ahead of its group (it pulled): on the next
				// publish it is a group of its own and is told it is current.
				subs[0].lease.AckVersion(9)
				subs[0].mu.Lock()
				subs[0].data, subs[0].version = content(9), 9
				subs[0].mu.Unlock()
				gets, _ := publish(content(9))
				if gets != int64(groups)+1 {
					t.Fatalf("%d store reads after one lease left its group, want %d", gets, groups+1)
				}
				if _, _, u := subs[0].snapshot(); u.Reply == nil || !u.Reply.Unchanged {
					t.Fatalf("lease already at the latest version got %+v, want Unchanged", u.Reply)
				}
				// A fresh lease that holds nothing gets the full value.
				add(PushDelta, 0, true)
				publish(content(10))
				if data, version, u := subs[len(subs)-1].snapshot(); u.Reply.IsDelta() || version != 10 || !bytes.Equal(data, content(10)) {
					t.Fatalf("lease with ack 0 got %+v, want the full value of version 10", u.Reply)
				}
			})
		}
	}
}

// A lease that acknowledges mid-fanout — here from inside another lease's
// Deliver, as an HTTP ack racing the workers would — lands in its own group
// for the rest of that publish and is back with the others on the next one.
func TestAckMidFanoutRegroupsOnNextPublish(t *testing.T) {
	cs := &countingStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 16})}
	m := NewManagerWith(cs, nil, Config{})
	body := func(v int) []byte {
		return append(bytes.Repeat([]byte("abcdefgh"), 32), byte(v))
	}
	for v := 1; v <= 2; v++ {
		if _, err := m.Publish("doc", body(v)); err != nil {
			t.Fatal(err)
		}
	}
	var leases [3]*Lease
	cols := [3]*collector{{}, {}, {}}
	for i := range leases {
		i := i
		l, err := m.Subscribe("doc", fmt.Sprintf("c%d", i), PushDelta, time.Hour, SubscriberFunc(func(u Update) {
			cols[i].Deliver(u)
			leases[i].AckVersion(u.Version)
			if i == 0 && u.Version == 3 {
				leases[2].AckVersion(3) // lease 2 pulled version 3 itself
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
		l.AckVersion(2)
	}
	g0 := cs.gets.Load()
	if _, err := m.Publish("doc", body(3)); err != nil {
		t.Fatal(err)
	}
	if got := cs.gets.Load() - g0; got != 2 {
		t.Fatalf("%d store reads, want 2: the group at version 2, then the lease that moved to 3", got)
	}
	if u := cols[2].last(); !u.Reply.Unchanged {
		t.Fatalf("lease that acked mid-fanout got %+v, want Unchanged", u.Reply)
	}
	g0 = cs.gets.Load()
	if _, err := m.Publish("doc", body(4)); err != nil {
		t.Fatal(err)
	}
	if got := cs.gets.Load() - g0; got != 1 {
		t.Fatalf("%d store reads on the next publish, want 1: all three leases acked version 3", got)
	}
	if a, b := cols[0].last(), cols[2].last(); a.Reply != b.Reply || !a.Reply.IsDelta() || a.Reply.BaseVersion != 3 {
		t.Fatalf("regrouped leases got %+v and %+v, want one shared delta against version 3", a.Reply, b.Reply)
	}
}

// Immutability: the subscribers of a group read the one shared Reply (and
// the one shared encoding) concurrently; under -race this is the check that
// nothing on the fanout path writes to a frame after handing it out.
func TestSharedFrameReadConcurrently(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 16})
	m := NewManagerWith(hs, nil, Config{Workers: 4})
	defer m.Close()
	var encodes atomic.Int64
	encode := func(u Update) []byte {
		encodes.Add(1)
		return append([]byte(nil), u.Reply.Full...)
	}
	var sum atomic.Int64
	var replies sync.Map // *store.Reply -> struct{}
	for i := 0; i < 32; i++ {
		_, err := m.Subscribe("doc", fmt.Sprintf("c%d", i), PushValue, time.Hour, SubscriberFunc(func(u Update) {
			replies.Store(u.Reply, struct{}{})
			for _, b := range u.Reply.Full {
				sum.Add(int64(b))
			}
			for _, b := range u.Encoded(encode) {
				sum.Add(int64(b))
			}
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Publish("doc", bytes.Repeat([]byte{1}, 100)); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got := sum.Load(); got != 32*200 {
		t.Fatalf("subscribers read %d bytes' worth, want %d", got, 32*200)
	}
	distinct := 0
	replies.Range(func(_, _ any) bool { distinct++; return true })
	if distinct != 1 || encodes.Load() != 1 {
		t.Fatalf("32 leases of one group saw %d Reply objects and %d encodings, want 1 and 1", distinct, encodes.Load())
	}
	// A hand-made update has no frame to share: it is encoded per call.
	u := Update{Key: "doc", Version: 1, Reply: &store.Reply{Full: []byte{1}}}
	u.Encoded(encode)
	u.Encoded(encode)
	if encodes.Load() != 3 {
		t.Fatalf("hand-made update: %d encodings in total, want 3", encodes.Load())
	}
}

// Deterministic cost ceiling (ROADMAP 7a): a steady-state publish to a key
// with 1000 acking PushDelta leases on a synchronous manager allocates a
// constant, nothing per lease. Measured when this test was written: 48
// allocations per publish (12 of them the store write alone, the rest the
// one delta, the snapshot and the job), against 15032 at the parent commit,
// where every lease had its own store read, Reply and four delta encodings.
// The ceiling is 150: over 100x under the parent, with room for the store's
// delta to vary.
func TestPublishAllocationsDoNotScaleWithLeases(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64, Retain: 4})
	m := NewManager(hs, nil)
	data := make([]byte, 4096)
	if _, err := m.Publish("hot", data); err != nil {
		t.Fatal(err)
	}
	const n = 1000
	leases := make([]*Lease, n)
	for i := range leases {
		i := i
		l, err := m.Subscribe("hot", fmt.Sprintf("c%d", i), PushDelta, time.Hour, SubscriberFunc(func(u Update) {
			leases[i].AckVersion(u.Version)
		}))
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
		l.AckVersion(1)
	}
	edits := 0
	allocs := testing.AllocsPerRun(50, func() {
		edits++
		data[edits%len(data)]++
		if _, err := m.Publish("hot", data); err != nil {
			t.Fatal(err)
		}
	})
	if got := leases[n-1].Deliveries(); got != 51 { // AllocsPerRun warms up once
		t.Fatalf("last lease saw %d deliveries, want 51", got)
	}
	if allocs > 150 {
		t.Fatalf("%.0f allocations per publish to %d leases, want <= 150 (parent commit: 15032)", allocs, n)
	}
}
