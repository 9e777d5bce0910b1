package persist

import (
	"sort"
	"strings"
	"sync"
)

// table is the in-memory live state every backend serves reads from: a
// hash map for O(1) point lookups and no ordered index. A cursor (made at
// open) and a snapshot (made by Compact) sort the keys they read when they
// start. Durable backends rebuild the table at open from their snapshot +
// log tail. Callers hold the backend mutex.
type table struct {
	vals map[string][]byte
}

func newTable() *table { return &table{vals: map[string][]byte{}} }

func (t *table) len() int { return len(t.vals) }

func (t *table) get(key string) ([]byte, bool) {
	v, ok := t.vals[key]
	return v, ok
}

// put stores a copy-free reference: callers pass ownership of val.
func (t *table) put(key string, val []byte) { t.vals[key] = val }

func (t *table) del(key string) bool {
	if _, ok := t.vals[key]; !ok {
		return false
	}
	delete(t.vals, key)
	return true
}

// prefixKeys snapshots the ascending key set under prefix.
func (t *table) prefixKeys(prefix string) []string {
	var keys []string
	for k := range t.vals {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// tableCursor implements Cursor over a key snapshot, re-reading each value
// under the backend mutex at Next so long scans never pin the lock and
// never see torn state: a key deleted after the snapshot is skipped, a
// value overwritten after it is served fresh.
type tableCursor struct {
	mu   *sync.Mutex
	tab  *table
	keys []string

	i      int
	key    string
	val    []byte
	closed bool
}

func newTableCursor(mu *sync.Mutex, tab *table, prefix string) *tableCursor {
	mu.Lock()
	keys := tab.prefixKeys(prefix)
	mu.Unlock()
	return &tableCursor{mu: mu, tab: tab, keys: keys}
}

// Next implements Cursor.
func (c *tableCursor) Next() bool {
	if c.closed {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.i < len(c.keys) {
		k := c.keys[c.i]
		c.i++
		if v, ok := c.tab.get(k); ok {
			c.key, c.val = k, v
			return true
		}
	}
	return false
}

// Key implements Cursor.
func (c *tableCursor) Key() string { return c.key }

// Value implements Cursor.
func (c *tableCursor) Value() []byte { return c.val }

// Err implements Cursor; in-memory iteration cannot fail.
func (c *tableCursor) Err() error { return nil }

// Close implements Cursor.
func (c *tableCursor) Close() error {
	c.closed = true
	c.keys = nil
	return nil
}
