package persist

import (
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"coda/internal/obs/trace"
)

// defaultSegLimit is the ?segment= default, the size at which the active
// segment rolls; defaultAutoCompact is bolt:'s ?wal= default.
const (
	defaultSegLimit    = 4 << 20
	defaultAutoCompact = 4 << 20
)

// walKV is the one durable engine, a segmented write-ahead log: every
// batch is one CRC-framed, fsynced append to the active seg-%08d.log file,
// and Compact writes a snap-%08d.snap checkpoint of the live table then
// drops the segments it covers, so open cost tracks live keys rather
// than total history. The snapshot is written in place (no tmp+rename):
// a crash mid-snapshot leaves a torn file that fails its commit-trailer
// check at open and falls back to the previous snapshot or full replay.
//
// Both durable schemes open it. log: leaves compaction to the caller;
// bolt: is log: plus auto-compaction — a background Compact once the
// segment bytes no snapshot covers outgrow ?wal=<bytes>.
type walKV struct {
	mu          sync.Mutex
	scheme      string
	dir         string
	segLimit    int64
	autoCompact int64

	tab      *table
	seq      uint64   // active segment sequence number
	f        *os.File // active segment
	size     int64    // bytes in the active segment
	lastGood int64    // size at the last committed batch — the truncation point for recovery
	logBytes int64    // segment bytes no snapshot covers yet

	broken    bool
	brokenErr error
	closed    bool

	// kick wakes the bolt: compactor and closing it stops it; nil for log:.
	kick    chan struct{}
	stopped chan struct{}

	st  Stats
	m   *backendMetrics
	buf []byte
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%08d.log", seq) }
func snapName(wm uint64) string { return fmt.Sprintf("snap-%08d.snap", wm) }
func parseSeq(name, prefix, ext string) (uint64, bool) {
	if len(name) != len(prefix)+8+len(ext) || name[:len(prefix)] != prefix || name[len(name)-len(ext):] != ext {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(prefix)+8], 10, 64)
	return n, err == nil
}

// sizeParam reads a byte-count DSN parameter.
func sizeParam(params url.Values, name string, def int64) (int64, error) {
	s := params.Get(name)
	if s == "" {
		return def, nil
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < walHeader {
		return 0, fmt.Errorf("bad %s size %q", name, s)
	}
	return n, nil
}

func openWAL(scheme, dir string, params url.Values) (*walKV, error) {
	if dir == "" {
		return nil, fmt.Errorf("%s backend needs a directory (%s:<dir>)", scheme, scheme)
	}
	segLimit, err := sizeParam(params, "segment", defaultSegLimit)
	if err != nil {
		return nil, err
	}
	b := &walKV{
		scheme:   scheme,
		dir:      dir,
		segLimit: segLimit,
		tab:      newTable(),
		st:       Stats{Backend: scheme, Healthy: true},
		m:        metricsFor(scheme),
	}
	if scheme == "bolt" {
		if b.autoCompact, err = sizeParam(params, "wal", defaultAutoCompact); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps []uint64
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), "seg-", ".log"); ok {
			segs = append(segs, n)
		} else if n, ok := parseSeq(e.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, n)
		} else if _, ok := parseSeq(e.Name(), "wal-", ".log"); ok || e.Name() == "index.db" {
			// Opening would start empty beside data it cannot see.
			return nil, fmt.Errorf("%s holds the retired bolt layout (index.db + wal-*.log), which this version cannot read: found %s", dir, e.Name())
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })

	// Newest valid snapshot wins; a torn one falls back to the previous,
	// and with none left the full segment history replays.
	var watermark uint64
	for i := len(snaps) - 1; i >= 0; i-- {
		if pairs, wm, ok := loadSnapshotFile(filepath.Join(dir, snapName(snaps[i])), b.tab); ok {
			b.st.OpenSnapshotKeys = pairs
			watermark = wm
			break
		}
	}

	// The snapshot covers every segment below its watermark. A torn tail
	// is a crash mid-write only on the newest segment; lastGood ends up at
	// that segment's intact prefix.
	segs = segs[sort.Search(len(segs), func(i int) bool { return segs[i] >= watermark }):]
	for i, seq := range segs {
		var n int64
		n, b.lastGood, err = replayFile(filepath.Join(dir, segName(seq)), i == len(segs)-1, func(op byte, key string, val []byte) error {
			switch op {
			case opPut:
				b.tab.put(key, val)
			case opDel:
				b.tab.del(key)
			default:
				return errBadRec
			}
			return nil
		})
		b.st.OpenReplayedRecords += n
		if err != nil {
			return nil, err
		}
		b.logBytes += b.lastGood
	}

	// Reopen the newest segment for appends, truncating its torn tail;
	// with no segments (fresh dir, or all compacted away) start a new one
	// at the watermark.
	if len(segs) > 0 {
		b.seq = segs[len(segs)-1]
		err = b.reopenLocked()
	} else {
		err = b.newSegmentLocked(max(watermark, 1))
	}
	if err != nil {
		return nil, err
	}

	b.st.OpenSeconds = time.Since(start).Seconds()
	b.m.openReplay.ObserveSince(start)
	b.m.liveKeys.Set(float64(b.tab.len()))

	if b.autoCompact > 0 {
		b.kick = make(chan struct{}, 1)
		b.stopped = make(chan struct{})
		go func() {
			defer close(b.stopped)
			for range b.kick {
				// A failed compaction loses nothing; the next commit
				// over the threshold kicks another.
				_ = b.Compact()
			}
		}()
	}
	return b, nil
}

func (b *walKV) newSegmentLocked(seq uint64) error {
	f, err := os.OpenFile(filepath.Join(b.dir, segName(seq)), os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	syncDir(b.dir)
	b.f, b.seq, b.size, b.lastGood = f, seq, 0, 0
	return nil
}

// rollLocked seals the active segment and starts the next one.
func (b *walKV) rollLocked() error {
	if b.f != nil {
		if err := b.f.Sync(); err != nil {
			return err
		}
		if err := b.f.Close(); err != nil {
			return err
		}
		b.f = nil
	}
	return b.newSegmentLocked(b.seq + 1)
}

// reopenLocked opens the active segment by path and truncates it back to
// lastGood, so a torn half-written record never precedes good data.
func (b *walKV) reopenLocked() error {
	f, err := os.OpenFile(filepath.Join(b.dir, segName(b.seq)), os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if err := f.Truncate(b.lastGood); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Seek(b.lastGood, 0); err != nil {
		f.Close()
		return err
	}
	if b.f != nil {
		b.f.Close()
	}
	b.f, b.size = f, b.lastGood
	return nil
}

// recoverLocked clears a latched write failure by reopening the active
// segment at the last committed batch. Success resets the latch; failure
// keeps it and returns the original error context.
func (b *walKV) recoverLocked() error {
	if err := b.reopenLocked(); err != nil {
		return fmt.Errorf("persist: %s backend latched (%v); recovery failed: %w", b.scheme, b.brokenErr, err)
	}
	b.broken, b.brokenErr = false, nil
	return nil
}

// commitLocked durably appends b.buf as one batch: recover a latched
// failure first, roll full segments, write, fsync. Any failure latches the
// backend so no further append lands after a possibly-torn record until
// recovery truncates it away.
func (b *walKV) commitLocked() error {
	if b.broken {
		if err := b.recoverLocked(); err != nil {
			return err
		}
	}
	if b.size >= b.segLimit {
		if err := b.rollLocked(); err != nil {
			b.broken, b.brokenErr = true, err
			return err
		}
	}
	if _, err := b.f.Write(b.buf); err != nil {
		b.broken, b.brokenErr = true, err
		return err
	}
	if err := b.f.Sync(); err != nil {
		b.broken, b.brokenErr = true, err
		return err
	}
	b.size += int64(len(b.buf))
	b.lastGood = b.size
	b.logBytes += int64(len(b.buf))
	if b.kick != nil && b.logBytes > b.autoCompact {
		select {
		case b.kick <- struct{}{}:
		default: // a compaction is already pending
		}
	}
	return nil
}

// Name implements KV.
func (b *walKV) Name() string { return b.scheme }

// PutBatch implements KV.
func (b *walKV) PutBatch(items []Item) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.buf = b.buf[:0]
	for _, it := range items {
		b.buf = appendRecord(b.buf, opPut, it.Key, it.Value)
	}
	if err := b.commitLocked(); err != nil {
		return err
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
func (b *walKV) GetBatch(keys []string) (map[string][]byte, error) {
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
func (b *walKV) Delete(keys ...string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	b.buf = b.buf[:0]
	for _, k := range keys {
		b.buf = appendRecord(b.buf, opDel, k, nil)
	}
	if err := b.commitLocked(); err != nil {
		return err
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
func (b *walKV) Cursor(prefix string) (Cursor, error) {
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

// snapshotLocked rolls the active segment and checkpoints the live table
// into snap-<watermark>.snap, where the watermark is the fresh segment: a
// later open loads the snapshot and replays only segments at or above it.
func (b *walKV) snapshotLocked() (watermark uint64, err error) {
	_, sp := trace.Start(context.Background(), "persist.snapshot", trace.String("backend", b.scheme))
	sp.SetComponent(trace.CompStoreWait)
	defer sp.End()
	start := time.Now()
	if b.broken {
		if err := b.recoverLocked(); err != nil {
			return 0, err
		}
	}
	if err := b.rollLocked(); err != nil {
		b.broken, b.brokenErr = true, err
		return 0, err
	}
	watermark = b.seq
	if _, err := writeSnapshotFile(filepath.Join(b.dir, snapName(watermark)), b.tab, watermark); err != nil {
		return 0, err
	}
	syncDir(b.dir)
	b.st.LastCompactSeconds = time.Since(start).Seconds()
	b.m.snapshotSec.ObserveSince(start)
	return watermark, nil
}

// Snapshot implements KV.
func (b *walKV) Snapshot() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	_, err := b.snapshotLocked()
	return err
}

// Compact implements KV: snapshot, then drop the segments (and older
// snapshots) the new snapshot covers.
func (b *walKV) Compact() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return ErrClosed
	}
	_, sp := trace.Start(context.Background(), "persist.compact", trace.String("backend", b.scheme))
	sp.SetComponent(trace.CompStoreWait)
	defer sp.End()
	start := time.Now()
	watermark, err := b.snapshotLocked()
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(b.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if n, ok := parseSeq(e.Name(), "seg-", ".log"); ok && n < watermark {
			os.Remove(filepath.Join(b.dir, e.Name()))
		} else if n, ok := parseSeq(e.Name(), "snap-", ".snap"); ok && n < watermark {
			os.Remove(filepath.Join(b.dir, e.Name()))
		}
	}
	syncDir(b.dir)
	b.logBytes = b.size
	b.st.Compactions++
	b.st.LastCompactSeconds = time.Since(start).Seconds()
	b.m.compactions.Inc()
	return nil
}

// Stats implements KV.
func (b *walKV) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.st
	st.LiveKeys = b.tab.len()
	st.Healthy = !b.broken
	if b.brokenErr != nil {
		st.Err = b.brokenErr.Error()
	}
	return st
}

// Close implements KV: stop the compactor, then flush and close the
// active segment.
func (b *walKV) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true // no commit sends on kick from here on
	b.mu.Unlock()
	if b.kick != nil {
		close(b.kick)
		<-b.stopped // it may be mid-Compact, which needs mu
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.f != nil {
		err := b.f.Sync()
		if cerr := b.f.Close(); err == nil {
			err = cerr
		}
		b.f = nil
		return err
	}
	return nil
}
