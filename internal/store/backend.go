package store

// VersionBackend is the persistence SPI underneath a HomeStore: it durably
// records every accepted version and streams them back at open. The store
// calls Append with the object's lock held, after the version number has
// been assigned, and only installs the version in memory when Append
// succeeds — so the durable log never lags the served state.
//
// Implementations must be safe for concurrent Append calls on different
// keys (the store serializes per key, not globally).
type VersionBackend interface {
	// Name identifies the backend ("mem", "log", "bolt") for flags and health.
	Name() string
	// Append durably records one version of key.
	Append(key string, v Version) error
	// Replay invokes fn for every recorded version in append order; Open
	// uses it to rebuild the in-memory state after a restart or crash.
	// Versions of one key arrive in ascending order.
	Replay(fn func(key string, v Version) error) error
	// Trim tells the backend that retention evicted these versions of
	// key, so its durable state stays proportional to what the store
	// still serves. Best-effort: a failure leaves stale version keys
	// behind, which replay tolerates (they reload and get trimmed again).
	Trim(key string, dropped []uint64) error
	// Healthy returns a non-nil error while the backend is latched after
	// a write failure (appends will attempt recovery). Stats and /healthz
	// surface it.
	Healthy() error
	// Compact drops durable history the live state no longer needs.
	Compact() error
	// Close releases underlying resources; Append fails afterwards.
	Close() error
}

// MemBackend is the in-memory backend: versions live only in the store's
// shards and nothing survives the process — the original HomeStore
// behavior, re-homed as the default backend.
type MemBackend struct{}

// NewMemBackend returns the no-persistence backend.
func NewMemBackend() *MemBackend { return &MemBackend{} }

// Name implements VersionBackend.
func (*MemBackend) Name() string { return "mem" }

// Append implements VersionBackend; accepting the write is free because
// the store's shards are the only copy.
func (*MemBackend) Append(string, Version) error { return nil }

// Replay implements VersionBackend; there is never anything to recover.
func (*MemBackend) Replay(func(key string, v Version) error) error { return nil }

// Trim implements VersionBackend; the shards already dropped them.
func (*MemBackend) Trim(string, []uint64) error { return nil }

// Healthy implements VersionBackend; nothing can latch.
func (*MemBackend) Healthy() error { return nil }

// Compact implements VersionBackend; there is no history to drop.
func (*MemBackend) Compact() error { return nil }

// Close implements VersionBackend.
func (*MemBackend) Close() error { return nil }
