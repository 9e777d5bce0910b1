// Package persist is the storage SPI underneath every durable consumer in
// coda: one batch-first key-value contract that the object store's version
// log and the DARR's records/claims both sit on, so "pluggable persistence"
// is a layer, not a per-consumer one-off.
//
// The seam is deliberately small — gorse-style (see PAPERS.md / ROADMAP
// item 2): batched writes (PutBatch), ordered prefix-cursor streaming, the
// one read path, which the object store and the DARR use to load a large
// keyspace at open without materializing it, and an explicit Compact hook
// so append-only history stops replaying from byte zero at every open.
//
// Backends are selected by DSN through Open: one write-ahead-log engine
// (walKV) behind both durable schemes — log:<dir>, and bolt:<dir>, which
// is log: plus background auto-compaction. "mem:" is a nil KV: both
// consumers keep their live state in memory anyway, so no KV means
// memory-only. Consumers outside this package must never name a concrete
// backend type — TestLayeringSeams in the root package enforces that only
// the SPI identifiers escape.
package persist

import (
	"errors"
	"fmt"

	"coda/internal/obs"
)

// ErrClosed is returned by every operation on a closed backend.
var ErrClosed = errors.New("persist: backend closed")

// Item is one key-value pair of a batched write. PutBatch may keep Value
// rather than copy it: the caller must not modify it afterwards.
type Item struct {
	Key   string
	Value []byte
}

// Cursor streams an ordered, prefix-bounded view of the keyspace. Keys
// arrive in ascending byte order. The value returned by Value is read-only.
// A backend never modifies a stored value in place, so a caller may keep
// it past the next Next. A cursor observes a snapshot of the matching key
// set taken at creation; concurrent writes never invalidate it (keys
// deleted after creation are skipped, values read are the latest).
type Cursor interface {
	// Next advances to the next pair, reporting false at the end of the
	// range (or after an error — check Err).
	Next() bool
	// Key returns the current key.
	Key() string
	// Value returns the current value (backend-owned, read-only).
	Value() []byte
	// Err reports the first error the cursor hit, if any.
	Err() error
	// Close releases the cursor.
	Close() error
}

// Stats is a point-in-time snapshot of one backend's accounting, surfaced
// through /healthz and the coda_persist_* metrics.
type Stats struct {
	// Backend names the DSN scheme ("log", "bolt").
	Backend string `json:"backend"`
	// LiveKeys counts keys currently present (puts minus deletes).
	LiveKeys int `json:"live_keys"`
	// Puts and Deletes count accepted mutations since open.
	Puts    int64 `json:"puts"`
	Deletes int64 `json:"deletes"`
	// Compactions counts completed snapshot-then-truncate cycles.
	Compactions int64 `json:"compactions"`
	// OpenSnapshotKeys is how many pairs the last Open loaded from a
	// snapshot, and OpenReplayedRecords how many log records it replayed
	// beyond the snapshot — together the O(live) vs O(history) split.
	OpenSnapshotKeys    int64 `json:"open_snapshot_keys"`
	OpenReplayedRecords int64 `json:"open_replayed_records"`
	// OpenSeconds is how long the last Open took to rebuild state.
	OpenSeconds float64 `json:"open_seconds"`
	// LastCompactSeconds is the duration of the most recent compaction.
	LastCompactSeconds float64 `json:"last_compact_seconds"`
	// CursorScans counts cursors opened.
	CursorScans int64 `json:"cursor_scans"`
	// Healthy is false when the backend latched a write failure and could
	// not yet recover; Err carries the failure.
	Healthy bool   `json:"healthy"`
	Err     string `json:"err,omitempty"`
}

// KV is the batch-first storage contract every backend implements. All
// methods are safe for concurrent use. A nil KV (what Open returns for
// "mem:") means the consumer's memory is the only copy.
type KV interface {
	// Name reports the backend's DSN scheme.
	Name() string
	// PutBatch durably stores every item under one write (one fsync on
	// durable backends). An error means no item became visible. It may
	// keep the items' values (see Item).
	PutBatch(items []Item) error
	// Delete removes keys (missing keys are not an error).
	Delete(keys ...string) error
	// Cursor streams all keys with the given prefix in ascending order.
	Cursor(prefix string) (Cursor, error)
	// Compact snapshots and then drops the history the snapshot covers,
	// making open time proportional to live keys instead of total writes.
	Compact() error
	// Stats returns the backend accounting snapshot.
	Stats() Stats
	// Close flushes and releases the backend; operations fail afterwards.
	Close() error
}

// backendMetrics is the coda_persist_* series for one backend label.
type backendMetrics struct {
	compactions *obs.Counter
	snapshotSec *obs.Histogram
	openReplay  *obs.Histogram
	liveKeys    *obs.Gauge
	cursorScans *obs.Counter
	puts        *obs.Counter
	deletes     *obs.Counter
}

func metricsFor(backend string) *backendMetrics {
	l := func(name string) string { return fmt.Sprintf(`%s{backend=%q}`, name, backend) }
	return &backendMetrics{
		compactions: obs.GetCounter(l("coda_persist_compactions_total")),
		snapshotSec: obs.GetHistogram(l("coda_persist_snapshot_seconds"), nil),
		openReplay:  obs.GetHistogram(l("coda_persist_open_replay_seconds"), nil),
		liveKeys:    obs.GetGauge(l("coda_persist_live_keys")),
		cursorScans: obs.GetCounter(l("coda_persist_cursor_scans_total")),
		puts:        obs.GetCounter(l("coda_persist_puts_total")),
		deletes:     obs.GetCounter(l("coda_persist_deletes_total")),
	}
}
