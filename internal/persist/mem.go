package persist

import "sync"

// memKV is the non-durable backend: the shared table and nothing else.
// It exists so every consumer runs the same code path in tests and
// single-process deployments, just without the WAL underneath.
type memKV struct {
	mu     sync.Mutex
	tab    *table
	st     Stats
	m      *backendMetrics
	closed bool
}

func newMemKV() *memKV {
	return &memKV{
		tab: newTable(),
		st:  Stats{Backend: "mem", Healthy: true},
		m:   metricsFor("mem"),
	}
}

// Name implements KV.
func (b *memKV) Name() string { return "mem" }

// PutBatch implements KV.
func (b *memKV) PutBatch(items []Item) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	for _, it := range items {
		b.tab.put(it.Key, append([]byte(nil), it.Value...))
	}
	b.st.Puts += int64(len(items))
	b.m.puts.Add(int64(len(items)))
	b.m.liveKeys.Set(float64(b.tab.len()))
	return nil
}

// GetBatch implements KV.
func (b *memKV) GetBatch(keys []string) (map[string][]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrClosed
	}
	out := make(map[string][]byte, len(keys))
	for _, k := range keys {
		if v, ok := b.tab.get(k); ok {
			out[k] = v
		}
	}
	return out, nil
}

// Delete implements KV.
func (b *memKV) Delete(keys ...string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	var n int64
	for _, k := range keys {
		if b.tab.del(k) {
			n++
		}
	}
	b.st.Deletes += n
	b.m.deletes.Add(n)
	b.m.liveKeys.Set(float64(b.tab.len()))
	return nil
}

// Cursor implements KV.
func (b *memKV) Cursor(prefix string) (Cursor, error) {
	b.mu.Lock()
	closed := b.closed
	b.st.CursorScans++
	b.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	b.m.cursorScans.Inc()
	return newTableCursor(&b.mu, b.tab, prefix), nil
}

// Snapshot implements KV; there is no history to checkpoint.
func (b *memKV) Snapshot() error { return nil }

// Compact implements KV; there is no history to drop.
func (b *memKV) Compact() error { return nil }

// Stats implements KV.
func (b *memKV) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	st.LiveKeys = b.tab.len()
	return st
}

// Close implements KV.
func (b *memKV) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.closed = true
	return nil
}
