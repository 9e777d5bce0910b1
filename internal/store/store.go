// Package store implements the versioned home data store of Section III.
// Each object has a monotonically increasing version number; the store
// retains recent versions and serves requests of the form "I have version
// e, give me the latest": when a delta d(o, e, k) exists and is
// considerably smaller than the full object, the delta is sent instead of
// the whole value. Per-object byte accounting backs the S1 experiment.
//
// The package is layered:
//
//   - ObjectStore is the narrow interface every consumer programs against
//     (replication, httpapi, experiments, the cmds).
//   - HomeStore is the concrete engine behind it: key-hash sharded locking
//     with per-object mutexes, and delta computation OUT of the critical
//     section behind a per-object memo that also dedups concurrent
//     computations and holds at most one delta per retained base.
//   - Durability is a persist.KV underneath HomeStore (Open, or OpenDSN
//     with log:<dir> or bolt:<dir>): every Put is one fsynced PutBatch,
//     every retention trim one Delete, and open replays one cursor pass.
//     A nil KV (NewHomeStore, or OpenDSN("mem:")) keeps the store
//     memory-only: the shards are the only copy.
package store

import (
	"errors"

	"coda/internal/delta"
	"coda/internal/obs"
)

// Home-store telemetry: the bytes each reply kind put on the wire (the S1
// bandwidth-saving experiment as a live scrape) and the out-of-lock delta
// pipeline: compute latency, per-kind Get latency and cache population.
// coda_store_get_seconds_count{kind} is the delta-vs-full reply split.
var (
	mStorePuts       = obs.GetCounter("coda_store_puts_total")
	mReplyBytesFull  = obs.GetCounter(`coda_store_reply_bytes_total{kind="full"}`)
	mReplyBytesDelta = obs.GetCounter(`coda_store_reply_bytes_total{kind="delta"}`)
	mSavedBytes      = obs.GetCounter("coda_store_saved_bytes_total")

	mGetFull      = obs.GetHistogram(`coda_store_get_seconds{kind="full"}`, nil)
	mGetDelta     = obs.GetHistogram(`coda_store_get_seconds{kind="delta"}`, nil)
	mGetUnchg     = obs.GetHistogram(`coda_store_get_seconds{kind="unchanged"}`, nil)
	mDeltaCompute = obs.GetHistogram("coda_store_delta_compute_seconds", nil)
	mCacheEntries = obs.GetGauge("coda_store_delta_cache_entries")
)

// ErrNotFound is returned for unknown object keys.
var ErrNotFound = errors.New("store: object not found")

// Version is one retained object version. A stored version is immutable:
// the store keeps the bytes it was handed and shares them, read-only, with
// every reply and replica, so one copy of a version is held in memory.
type Version struct {
	Num  uint64
	Data []byte
}

// Reply answers a Get: the full latest value, a delta against the
// requester's version, or an unchanged marker when the requester is
// already current.
type Reply struct {
	Key     string
	Version uint64 // latest version number
	// Unchanged is set when the requester already holds the latest
	// version; no payload accompanies it.
	Unchanged bool
	// Full is set when the store sends the whole object. It is read-only:
	// from HomeStore.Get it is the stored version's own bytes, and a
	// Replica that applies it keeps it.
	Full []byte
	// Delta is set instead when a delta reply pays off; BaseVersion names
	// the version it applies to.
	Delta       *delta.Delta
	BaseVersion uint64
}

// IsDelta reports whether the reply carries a delta.
func (r *Reply) IsDelta() bool { return r.Delta != nil }

// Kind names the reply's payload form — "unchanged", "delta", or
// "full" — for logs and trace attributes.
func (r *Reply) Kind() string {
	switch {
	case r.Unchanged:
		return "unchanged"
	case r.IsDelta():
		return "delta"
	default:
		return "full"
	}
}

// unchangedWireBytes is the fixed header cost of an unchanged reply.
const unchangedWireBytes = 16

// WireBytes returns the payload size a network transfer of this reply
// would carry.
func (r *Reply) WireBytes() int {
	if r.Unchanged {
		return unchangedWireBytes
	}
	if r.IsDelta() {
		return r.Delta.WireSize()
	}
	return len(r.Full)
}

// Stats tallies what the store has sent, for the bandwidth experiments.
type Stats struct {
	FullReplies  int   `json:"full_replies"`
	DeltaReplies int   `json:"delta_replies"`
	FullBytes    int64 `json:"full_bytes"`
	DeltaBytes   int64 `json:"delta_bytes"`
	// SavedBytes is the difference between what full replies would have
	// cost and what delta replies actually cost.
	SavedBytes int64 `json:"saved_bytes"`
	// DeltaComputes counts actual delta.Compute invocations; with the
	// per-object memo it stays below the delta-reply count under
	// concurrent or repeated pulls of the same (key, base).
	DeltaComputes int64 `json:"delta_computes"`
	// Backend names the persistence backend underneath the store, and
	// BackendHealthy/BackendErr surface a latched write failure (a
	// durable backend that refused an append and has not yet recovered)
	// into /healthz.
	Backend        string `json:"backend"`
	BackendHealthy bool   `json:"backend_healthy"`
	BackendErr     string `json:"backend_err,omitempty"`
}

// ObjectStore is the data-tier seam: the versioned object operations every
// consumer outside this package programs against. HomeStore implements it
// over an optional persist.KV; no caller should name the concrete engine
// except at construction.
type ObjectStore interface {
	// Put stores data as the next version of key and returns its version
	// number (starting at 1 for a new object). A persistent backend may
	// refuse the write, in which case the store state is unchanged. Put
	// keeps data; the caller must not modify it afterwards.
	Put(key string, data []byte) (uint64, error)
	// Current returns the latest version of the object.
	Current(key string) (Version, error)
	// Get answers a node that has haveVersion (0 = nothing): it returns
	// the latest version, as a delta when one is available against
	// haveVersion and its wire size is below FullFraction of the full
	// object.
	Get(key string, haveVersion uint64) (*Reply, error)
	// Stats returns a snapshot of the reply accounting.
	Stats() Stats
	// Close releases the backend (flushes/closes segment files for the
	// log backend; a no-op when memory-only).
	Close() error
}

// Options configures a HomeStore.
type Options struct {
	// Retain is how many past versions (and so delta bases) each object
	// keeps (default 4) — the paper's "recent versions of o1" window.
	Retain int
	// BlockSize is the delta block granularity (default delta.DefaultBlockSize).
	BlockSize int
	// FullFraction is the delta-vs-full threshold: a delta is sent only
	// when its wire size is below FullFraction * len(full) (default
	// defaultFullFraction).
	FullFraction float64
	// shards is the number of lock shards keys hash into (defaultShards;
	// the concurrency tests and BenchmarkStoreConcurrent vary it).
	// Operations on objects in different shards never contend on a lock.
	shards int
}

// A HomeStore's defaults: its lock shard count, and the delta-vs-full
// threshold, a conservative reading of "considerably smaller".
const (
	defaultShards       = 16
	defaultFullFraction = 0.5
)

func (o *Options) setDefaults() {
	if o.Retain <= 0 {
		o.Retain = 4
	}
	if o.BlockSize <= 0 {
		o.BlockSize = delta.DefaultBlockSize
	}
	if o.FullFraction <= 0 || o.FullFraction > 1 {
		o.FullFraction = defaultFullFraction
	}
	if o.shards <= 0 {
		o.shards = defaultShards
	}
}
