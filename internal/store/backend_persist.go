package store

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"

	"coda/internal/persist"
)

// kvBackend adapts a persist.KV to the VersionBackend SPI, which is how
// the object store rides the shared persistence layer: every accepted
// version becomes one KV pair under
//
//	o/<url.PathEscape(key)>/<version as %016x>
//
// PathEscape keeps '/' out of the escaped object key, so the last '/'
// always splits key from version, and the fixed-width hex version makes
// byte order equal numeric order — a prefix cursor over "o/" streams
// versions grouped by object, ascending, exactly what Replay needs.
type kvBackend struct {
	kv persist.KV
}

// NewKVBackend wraps a shared-persistence backend as a VersionBackend.
func NewKVBackend(kv persist.KV) VersionBackend { return &kvBackend{kv: kv} }

// OpenDSN builds a store on the persistence backend a DSN names (see
// persist.Open for the grammar). "mem:" maps to the store's native
// in-memory backend: the shards are already the only copy, so a second
// in-memory table underneath would be pure duplication.
func OpenDSN(dsn string, opts Options) (*HomeStore, error) {
	if dsn == "mem:" {
		return Open(opts, NewMemBackend())
	}
	kv, err := persist.Open(dsn)
	if err != nil {
		return nil, err
	}
	s, err := Open(opts, NewKVBackend(kv))
	if err != nil {
		_ = kv.Close()
		return nil, err
	}
	return s, nil
}

const objPrefix = "o/"

func encodeVersionKey(key string, num uint64) string {
	return objPrefix + url.PathEscape(key) + "/" + fmt.Sprintf("%016x", num)
}

func decodeVersionKey(k string) (key string, num uint64, err error) {
	rest, ok := strings.CutPrefix(k, objPrefix)
	if !ok {
		return "", 0, fmt.Errorf("store: kv key %q outside object prefix", k)
	}
	i := strings.LastIndexByte(rest, '/')
	if i < 0 {
		return "", 0, fmt.Errorf("store: kv key %q missing version", k)
	}
	key, err = url.PathUnescape(rest[:i])
	if err != nil {
		return "", 0, fmt.Errorf("store: kv key %q: %w", k, err)
	}
	num, err = strconv.ParseUint(rest[i+1:], 16, 64)
	if err != nil {
		return "", 0, fmt.Errorf("store: kv key %q: bad version: %w", k, err)
	}
	return key, num, nil
}

// Name implements VersionBackend.
func (b *kvBackend) Name() string { return b.kv.Name() }

// Append implements VersionBackend.
func (b *kvBackend) Append(key string, v Version) error {
	return b.kv.PutBatch([]persist.Item{{Key: encodeVersionKey(key, v.Num), Value: v.Data}})
}

// Replay implements VersionBackend: one cursor pass over the object
// prefix. Byte order of the encoded keys delivers each object's versions
// in ascending order, as the contract requires.
func (b *kvBackend) Replay(fn func(key string, v Version) error) error {
	cur, err := b.kv.Cursor(objPrefix)
	if err != nil {
		return err
	}
	defer cur.Close()
	for cur.Next() {
		key, num, err := decodeVersionKey(cur.Key())
		if err != nil {
			return err
		}
		data := append([]byte(nil), cur.Value()...)
		if err := fn(key, Version{Num: num, Data: data}); err != nil {
			return err
		}
	}
	return cur.Err()
}

// Trim implements VersionBackend: retention-evicted versions leave the
// backend too, keeping snapshots and compacted state proportional to the
// versions actually retained.
func (b *kvBackend) Trim(key string, dropped []uint64) error {
	keys := make([]string, len(dropped))
	for i, num := range dropped {
		keys[i] = encodeVersionKey(key, num)
	}
	return b.kv.Delete(keys...)
}

// Healthy implements VersionBackend, surfacing a latched write failure.
func (b *kvBackend) Healthy() error {
	st := b.kv.Stats()
	if !st.Healthy {
		return fmt.Errorf("store: %s backend unhealthy: %s", st.Backend, st.Err)
	}
	return nil
}

// Compact implements VersionBackend with the shared layer's
// snapshot-then-truncate cycle.
func (b *kvBackend) Compact() error { return b.kv.Compact() }

// Close implements VersionBackend.
func (b *kvBackend) Close() error { return b.kv.Close() }
