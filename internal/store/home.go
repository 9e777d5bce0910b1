package store

import (
	"fmt"
	"hash/fnv"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/delta"
	"coda/internal/persist"
)

// object is the per-key state: retained versions plus the delta machinery.
// Its mutex is the only lock held while versions are read or advanced, so
// objects in different shards — and different objects in the same shard —
// never serialize behind one another.
type object struct {
	mu       sync.Mutex
	versions []Version // ascending version order, at most retain+1 (incl. latest)

	// deltaCache memoizes d(o, base, latest) keyed by base version. It is
	// cleared in place on Put (a new latest stales every entry) and capped
	// at DeltaCacheCap entries, evicting the oldest insertion first.
	deltaCache map[uint64]cachedDelta
	cacheOrder []uint64 // insertion order of deltaCache keys, oldest first

	// inflight dedups concurrent delta computations: the first Get for a
	// (base, target) pair computes outside the lock, later ones wait on
	// the call instead of redoing the work.
	inflight map[deltaKey]*deltaCall
}

type cachedDelta struct {
	target uint64 // latest version the delta produces
	d      *delta.Delta
}

type deltaKey struct{ base, target uint64 }

type deltaCall struct {
	done chan struct{}
	d    *delta.Delta
}

// shard is one lock stripe of the key space.
type shard struct {
	mu      sync.RWMutex
	objects map[string]*object
}

// HomeStore is the thread-safe versioned object engine behind ObjectStore:
// key-hash sharded locking, per-object mutexes, out-of-lock singleflighted
// delta computation, and a persist.KV underneath for durability.
type HomeStore struct {
	opts   Options
	kv     persist.KV // nil: memory-only, the shards are the only copy
	shards []*shard

	fullReplies   atomic.Int64
	deltaReplies  atomic.Int64
	fullBytes     atomic.Int64
	deltaBytes    atomic.Int64
	savedBytes    atomic.Int64
	deltaComputes atomic.Int64
}

var _ ObjectStore = (*HomeStore)(nil)

// NewHomeStore builds a memory-only store. It cannot fail: there is no KV
// to replay.
func NewHomeStore(opts Options) *HomeStore {
	s, _ := Open(opts, nil)
	return s
}

// OpenDSN builds a store on the persistence backend a DSN names (see
// persist.Open for the grammar); "mem:" names no KV, so the store is
// memory-only.
func OpenDSN(dsn string, opts Options) (*HomeStore, error) {
	kv, err := persist.Open(dsn)
	if err != nil {
		return nil, err
	}
	s, err := Open(opts, kv)
	if err != nil && kv != nil {
		_ = kv.Close()
	}
	return s, err
}

// NewKVBackend returns kv unchanged.
//
// Deprecated: pass the KV to Open. Kept only for bench/e2e's traced boot,
// which calls store.Open(opts, store.NewKVBackend(kv)).
func NewKVBackend(kv persist.KV) persist.KV { return kv }

// Open builds a store that writes every accepted version through to kv
// and, at open, replays what kv recorded before (crash recovery). A nil
// kv keeps the store memory-only.
//
// Each version is one KV pair under o/<url.PathEscape(key)>/<%016x
// version>. PathEscape keeps '/' out of the escaped key, so the last '/'
// splits key from version, and the fixed-width hex makes byte order
// numeric order: one cursor pass over "o/" streams each object's versions
// ascending. Versions the retention window drops on the way are deleted
// from kv, so they never replay again.
func Open(opts Options, kv persist.KV) (*HomeStore, error) {
	opts.setDefaults()
	s := &HomeStore{opts: opts, kv: kv, shards: make([]*shard, opts.Shards)}
	for i := range s.shards {
		s.shards[i] = &shard{objects: map[string]*object{}}
	}
	if kv == nil {
		return s, nil
	}
	if err := s.replay(); err != nil {
		return nil, fmt.Errorf("store: replaying %s backend: %w", kv.Name(), err)
	}
	return s, nil
}

func (s *HomeStore) replay() error {
	cur, err := s.kv.Cursor(objPrefix)
	if err != nil {
		return err
	}
	defer cur.Close()
	var trimmed []string
	for cur.Next() {
		key, num, err := decodeVersionKey(cur.Key())
		if err != nil {
			return err
		}
		obj := s.object(key, true)
		if n := len(obj.versions); n > 0 && num <= obj.versions[n-1].Num {
			return fmt.Errorf("store: replayed version %d of %q out of order (have %d)", num, key, obj.versions[n-1].Num)
		}
		obj.versions = append(obj.versions, Version{Num: num, Data: append([]byte(nil), cur.Value()...)})
		trimmed = append(trimmed, versionKeys(key, obj.trimRetention(s.opts.Retain))...)
	}
	if err := cur.Err(); err != nil || len(trimmed) == 0 {
		return err
	}
	return s.kv.Delete(trimmed...)
}

const objPrefix = "o/"

func encodeVersionKey(key string, num uint64) string {
	return objPrefix + url.PathEscape(key) + "/" + fmt.Sprintf("%016x", num)
}

// versionKeys encodes the KV keys of versions nums of key.
func versionKeys(key string, nums []uint64) []string {
	keys := make([]string, len(nums))
	for i, num := range nums {
		keys[i] = encodeVersionKey(key, num)
	}
	return keys
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

// Backend names the KV this store writes through to ("mem" when
// memory-only).
func (s *HomeStore) Backend() string {
	if s.kv == nil {
		return "mem"
	}
	return s.kv.Name()
}

func (s *HomeStore) shardFor(key string) *shard {
	h := fnv.New32a()
	_, _ = h.Write([]byte(key))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// object returns the per-key state, creating it when create is set; a nil
// return means the key is unknown.
func (s *HomeStore) object(key string, create bool) *object {
	sh := s.shardFor(key)
	sh.mu.RLock()
	obj := sh.objects[key]
	sh.mu.RUnlock()
	if obj != nil || !create {
		return obj
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if obj = sh.objects[key]; obj == nil {
		obj = &object{deltaCache: map[uint64]cachedDelta{}}
		sh.objects[key] = obj
	}
	return obj
}

// trimRetention drops versions beyond the retention window, returning the
// evicted version numbers so they can leave the KV too. Caller
// holds obj.mu (or has exclusive access during replay). The survivors move
// to a fresh slice so evicted version data can be collected.
func (o *object) trimRetention(retain int) []uint64 {
	if len(o.versions) <= retain+1 {
		return nil
	}
	cut := len(o.versions) - retain - 1
	dropped := make([]uint64, cut)
	for i := range dropped {
		dropped[i] = o.versions[i].Num
	}
	o.versions = append([]Version(nil), o.versions[cut:]...)
	return dropped
}

// clearDeltaCache empties the cache in place — no map reallocation on the
// Put hot path — and keeps the entries gauge honest. Caller holds obj.mu.
func (o *object) clearDeltaCache() {
	if len(o.deltaCache) == 0 {
		return
	}
	mCacheEntries.Add(-float64(len(o.deltaCache)))
	for k := range o.deltaCache {
		delete(o.deltaCache, k)
	}
	o.cacheOrder = o.cacheOrder[:0]
}

// cacheDelta inserts under the per-object cap, evicting oldest-first.
// Caller holds obj.mu.
func (o *object) cacheDelta(base uint64, c cachedDelta, cap int) {
	if _, exists := o.deltaCache[base]; !exists {
		o.cacheOrder = append(o.cacheOrder, base)
		mCacheEntries.Add(1)
	}
	o.deltaCache[base] = c
	for len(o.deltaCache) > cap && len(o.cacheOrder) > 0 {
		oldest := o.cacheOrder[0]
		o.cacheOrder = o.cacheOrder[1:]
		if _, ok := o.deltaCache[oldest]; ok {
			delete(o.deltaCache, oldest)
			mCacheEntries.Add(-1)
		}
	}
}

// Put stores a new version of the object and returns its version number
// (starting at 1 for a new object). The write reaches the KV before it
// becomes visible; a KV refusal leaves the store unchanged.
func (s *HomeStore) Put(key string, data []byte) (uint64, error) {
	obj := s.object(key, true)
	obj.mu.Lock()
	defer obj.mu.Unlock()
	var next uint64 = 1
	if n := len(obj.versions); n > 0 {
		next = obj.versions[n-1].Num + 1
	}
	v := Version{Num: next, Data: append([]byte(nil), data...)}
	if s.kv != nil {
		if err := s.kv.PutBatch([]persist.Item{{Key: encodeVersionKey(key, next), Value: v.Data}}); err != nil {
			return 0, fmt.Errorf("store: persisting %q version %d: %w", key, next, err)
		}
	}
	obj.versions = append(obj.versions, v)
	if dropped := obj.trimRetention(s.opts.Retain); len(dropped) > 0 && s.kv != nil {
		// Best-effort: a version key left behind is deleted by the next
		// Open, whose replay trims it again.
		_ = s.kv.Delete(versionKeys(key, dropped)...)
	}
	// The latest version changed, so all cached deltas are stale.
	obj.clearDeltaCache()
	mStorePuts.Inc()
	return next, nil
}

// Current returns the latest version of the object.
func (s *HomeStore) Current(key string) (Version, error) {
	obj := s.object(key, false)
	if obj == nil {
		return Version{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	obj.mu.Lock()
	defer obj.mu.Unlock()
	if len(obj.versions) == 0 {
		return Version{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	v := obj.versions[len(obj.versions)-1]
	return Version{Num: v.Num, Data: append([]byte(nil), v.Data...)}, nil
}

// Get answers a node that has haveVersion (0 = nothing): it returns the
// latest version, as a delta when one is available against haveVersion and
// its wire size is below FullFraction of the full object.
//
// The object lock is held only to snapshot version references; the delta
// itself is computed outside every lock, deduplicated per (base, target)
// by a singleflight, so one slow delta never blocks readers of this or any
// other key.
func (s *HomeStore) Get(key string, haveVersion uint64) (*Reply, error) {
	start := time.Now()
	obj := s.object(key, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	obj.mu.Lock()
	if len(obj.versions) == 0 {
		obj.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	latest := obj.versions[len(obj.versions)-1]
	reply := &Reply{Key: key, Version: latest.Num}

	if haveVersion == latest.Num {
		obj.mu.Unlock()
		reply.Unchanged = true
		mRepliesUnchg.Inc()
		mGetUnchg.ObserveSince(start)
		return reply, nil
	}
	var base Version
	haveBase := false
	if haveVersion != 0 && haveVersion < latest.Num {
		base, haveBase = findVersion(obj.versions, haveVersion)
	}
	obj.mu.Unlock()

	if haveBase {
		d := s.deltaFor(obj, base, latest)
		if float64(d.WireSize()) < s.opts.FullFraction*float64(len(latest.Data)) {
			reply.Delta = d
			reply.BaseVersion = haveVersion
			s.deltaReplies.Add(1)
			s.deltaBytes.Add(int64(d.WireSize()))
			s.savedBytes.Add(int64(len(latest.Data) - d.WireSize()))
			mRepliesDelta.Inc()
			mReplyBytesDelta.Add(int64(d.WireSize()))
			mSavedBytes.Add(int64(len(latest.Data) - d.WireSize()))
			mGetDelta.ObserveSince(start)
			return reply, nil
		}
	}
	reply.Full = append([]byte(nil), latest.Data...)
	s.fullReplies.Add(1)
	s.fullBytes.Add(int64(len(latest.Data)))
	mRepliesFull.Inc()
	mReplyBytesFull.Add(int64(len(latest.Data)))
	mGetFull.ObserveSince(start)
	return reply, nil
}

// deltaFor returns d(key, base, latest), from the cache when possible.
// A miss computes outside the object lock; concurrent misses for the same
// (base, target) pair join the first computation instead of repeating it.
func (s *HomeStore) deltaFor(obj *object, base, latest Version) *delta.Delta {
	k := deltaKey{base: base.Num, target: latest.Num}
	obj.mu.Lock()
	if c, ok := obj.deltaCache[base.Num]; ok && c.target == latest.Num {
		obj.mu.Unlock()
		return c.d
	}
	if call, ok := obj.inflight[k]; ok {
		obj.mu.Unlock()
		<-call.done
		return call.d
	}
	call := &deltaCall{done: make(chan struct{})}
	if obj.inflight == nil {
		obj.inflight = map[deltaKey]*deltaCall{}
	}
	obj.inflight[k] = call
	obj.mu.Unlock()

	t0 := time.Now()
	call.d = delta.Compute(base.Data, latest.Data, s.opts.BlockSize)
	mDeltaCompute.ObserveSince(t0)
	s.deltaComputes.Add(1)

	obj.mu.Lock()
	delete(obj.inflight, k)
	// Cache only while latest is still current; a Put that raced the
	// computation has already staled this delta.
	if n := len(obj.versions); n > 0 && obj.versions[n-1].Num == latest.Num {
		obj.cacheDelta(base.Num, cachedDelta{target: latest.Num, d: call.d}, s.opts.DeltaCacheCap)
	}
	obj.mu.Unlock()
	close(call.done)
	return call.d
}

func findVersion(versions []Version, num uint64) (Version, bool) {
	for _, v := range versions {
		if v.Num == num {
			return v, true
		}
	}
	return Version{}, false
}

// RetainedVersions lists the version numbers currently held for a key.
func (s *HomeStore) RetainedVersions(key string) ([]uint64, error) {
	obj := s.object(key, false)
	if obj == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	obj.mu.Lock()
	defer obj.mu.Unlock()
	out := make([]uint64, len(obj.versions))
	for i, v := range obj.versions {
		out[i] = v.Num
	}
	return out, nil
}

// Stats returns a snapshot of the reply accounting, including the KV's
// health (latched write failures surface here and in /healthz).
func (s *HomeStore) Stats() Stats {
	st := Stats{
		FullReplies:    int(s.fullReplies.Load()),
		DeltaReplies:   int(s.deltaReplies.Load()),
		FullBytes:      s.fullBytes.Load(),
		DeltaBytes:     s.deltaBytes.Load(),
		SavedBytes:     s.savedBytes.Load(),
		DeltaComputes:  s.deltaComputes.Load(),
		Backend:        s.Backend(),
		BackendHealthy: true,
	}
	if s.kv != nil {
		if ks := s.kv.Stats(); !ks.Healthy {
			st.BackendHealthy = false
			st.BackendErr = fmt.Sprintf("store: %s backend unhealthy: %s", ks.Backend, ks.Err)
		}
	}
	return st
}

// Each streams every object key to fn until it returns false. Keys are
// snapshotted one shard at a time, so fn runs without any store lock held
// and writers never stall behind a slow consumer.
func (s *HomeStore) Each(fn func(key string) bool) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		keys := make([]string, 0, len(sh.objects))
		for k := range sh.objects {
			keys = append(keys, k)
		}
		sh.mu.RUnlock()
		for _, k := range keys {
			if !fn(k) {
				return
			}
		}
	}
}

// Keys lists all object keys.
func (s *HomeStore) Keys() []string {
	var out []string
	s.Each(func(k string) bool {
		out = append(out, k)
		return true
	})
	return out
}

// CompactBackend runs the KV's compaction cycle (a no-op when
// memory-only).
func (s *HomeStore) CompactBackend() error {
	if s.kv == nil {
		return nil
	}
	return s.kv.Compact()
}

// deltaCacheLen reports the cached-delta count for a key (test hook).
func (s *HomeStore) deltaCacheLen(key string) int {
	obj := s.object(key, false)
	if obj == nil {
		return 0
	}
	obj.mu.Lock()
	defer obj.mu.Unlock()
	return len(obj.deltaCache)
}

// Close drops the cached deltas from the entries gauge and closes the KV;
// further Puts fail unless the store is memory-only.
func (s *HomeStore) Close() error {
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, obj := range sh.objects {
			obj.mu.Lock()
			obj.clearDeltaCache()
			obj.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	if s.kv == nil {
		return nil
	}
	return s.kv.Close()
}
