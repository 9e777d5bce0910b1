package store

import (
	"fmt"
	"sync"

	"coda/internal/delta"
)

// Replica is a client-side cache of objects obtained from a home store: it
// tracks which version it has and applies delta replies locally.
type Replica struct {
	mu      sync.Mutex
	objects map[string]Version
	// BytesReceived accumulates payload bytes this replica pulled.
	bytesReceived int64
}

// NewReplica returns an empty replica cache.
func NewReplica() *Replica {
	return &Replica{objects: map[string]Version{}}
}

// VersionOf returns the version this replica holds for key (0 = none).
func (r *Replica) VersionOf(key string) uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.objects[key].Num
}

// Data returns the replica's copy of the object.
func (r *Replica) Data(key string) ([]byte, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.objects[key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v.Data...), true
}

// BytesReceived reports total payload bytes absorbed by this replica.
func (r *Replica) BytesReceived() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.bytesReceived
}

// ApplyReply integrates a Reply (full, delta, or unchanged) into the
// replica, keeping a full reply's bytes (read-only, like every Full). Only
// replies that validate and apply count toward BytesReceived — a rejected
// reply (stale full, version-mismatch unchanged, a delta that does not
// move the replica forward) must not inflate the S1 bandwidth accounting.
func (r *Replica) ApplyReply(reply *Reply) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if reply.Unchanged {
		if cur := r.objects[reply.Key]; cur.Num != reply.Version {
			return fmt.Errorf("store: unchanged reply for version %d but replica has %d of %q", reply.Version, cur.Num, reply.Key)
		}
		r.bytesReceived += int64(reply.WireBytes())
		return nil
	}
	if !reply.IsDelta() {
		// A full reply older than what the replica holds (a delayed or
		// replayed response) must not regress the cache. Re-applying the
		// version already held is idempotent and allowed — retries land
		// there.
		if cur := r.objects[reply.Key]; reply.Version < cur.Num {
			return fmt.Errorf("store: stale full reply with version %d of %q, replica already has %d", reply.Version, reply.Key, cur.Num)
		}
		r.objects[reply.Key] = Version{Num: reply.Version, Data: reply.Full}
		r.bytesReceived += int64(reply.WireBytes())
		return nil
	}
	// A delta names its target and its base separately (two headers on the
	// wire); one to its base or an older version would move the replica
	// backwards.
	if reply.Version <= reply.BaseVersion {
		return fmt.Errorf("store: delta for %q to version %d from base %d does not move forward", reply.Key, reply.Version, reply.BaseVersion)
	}
	cur, ok := r.objects[reply.Key]
	if !ok || cur.Num != reply.BaseVersion {
		return fmt.Errorf("store: replica has version %d of %q, delta needs %d", cur.Num, reply.Key, reply.BaseVersion)
	}
	data, err := delta.Apply(cur.Data, reply.Delta)
	if err != nil {
		return fmt.Errorf("store: applying delta for %q: %w", reply.Key, err)
	}
	r.objects[reply.Key] = Version{Num: reply.Version, Data: data}
	r.bytesReceived += int64(reply.WireBytes())
	return nil
}

// Pull synchronizes one object from the home store into the replica,
// sending the replica's version number as Section III describes. Any
// ObjectStore serves: the in-process engine on either backend, or a test
// double.
func (r *Replica) Pull(home ObjectStore, key string) error {
	reply, err := home.Get(key, r.VersionOf(key))
	if err != nil {
		return fmt.Errorf("store: pull %q: %w", key, err)
	}
	if err := r.ApplyReply(reply); err != nil {
		return err
	}
	return nil
}
