// Package replication implements Section III's update-propagation
// machinery between home data stores and clients:
//
//   - Pull: clients query the home store when they want fresh data.
//   - Push (lease-based subscriptions, after Gray & Cheriton): the home
//     store sends updates to subscribed clients until their lease expires;
//     clients renew to keep receiving, or cancel early.
//   - Three push payloads: the entire current value, a delta against the
//     subscriber's version, or a lightweight notification carrying only
//     the new version number and change magnitude, letting the client
//     decide if and when to fetch.
//
// The package also provides the change-detection triggers that decide when
// re-running analytics is warranted: update count, update bytes, or an
// application-specific predicate.
//
// A Manager turns each publish into one fanout job and returns: the store
// write, a copy of the key's lease list and one handoff to a bounded worker
// pool (Config.Workers, one by default). The writer touches no lease: a
// worker that claims a lease merges the publish into its coalescing slot and
// takes the slot for delivery under one lock acquisition, and prunes the
// lease there if it has lapsed. A publish to a key whose queued job no
// worker has started folds into that job, so a burst collapses into one
// frame per lease carrying the latest version. Leases that share a (mode,
// acknowledged version) group share one build — one store read — and are
// handed the same immutable Update, so a hot object costs one delta per
// distinct base, not one per watcher. The job is split into one share per
// worker, and each worker claims leases one at a time from its own share and
// then from the others' as it runs dry, so a slow, failing, or panicking
// subscriber never stalls the publisher or any other lease. A lease's frames
// never go backwards: coalescing may skip a version, never reorder two.
// Flush is the barrier for callers that must see the deliveries, such as the
// experiments; the same pool is the serving tier behind httpapi's SSE
// lease endpoints.
package replication

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/store"
)

// Replication telemetry: fan-out volume and wire cost per push mode, the
// lease population, and the fanout pipeline.
var (
	mPushes = [...]*obs.Counter{
		PushValue:  obs.GetCounter(`coda_replication_pushes_total{mode="push-value"}`),
		PushDelta:  obs.GetCounter(`coda_replication_pushes_total{mode="push-delta"}`),
		PushNotify: obs.GetCounter(`coda_replication_pushes_total{mode="push-notify"}`),
	}
	mPushBytes     = obs.GetCounter("coda_replication_push_bytes_total")
	mLeasesExpired = obs.GetCounter("coda_replication_leases_pruned_total")

	mPushErrors    = obs.GetCounter("coda_replication_push_errors_total")
	mPushPanics    = obs.GetCounter("coda_replication_push_panics_total")
	mLeasesActive  = obs.GetGauge("coda_replication_leases_active")
	mSubscribes    = obs.GetCounter("coda_replication_subscribes_total")
	mCancels       = obs.GetCounter("coda_replication_cancels_total")
	mRenewals      = obs.GetCounter("coda_replication_renewals_total")
	mCoalesced     = obs.GetCounter("coda_replication_coalesced_updates_total")
	mUpdateBuilds  = obs.GetCounter("coda_replication_update_builds_total")
	mQueueDepth    = obs.GetGauge("coda_replication_fanout_queue_depth")
	mFanoutSeconds = obs.GetHistogram("coda_replication_fanout_seconds", nil)
)

// PushMode selects the payload a subscription delivers.
type PushMode int

// Push modes from Section III.
const (
	// PushValue sends the entire current value on every update.
	PushValue PushMode = iota + 1
	// PushDelta sends a delta against the subscriber's last-acknowledged
	// version (falling back to the full value when a delta does not pay).
	PushDelta
	// PushNotify sends only the new version number and an indication of
	// how much the object changed.
	PushNotify
)

var modeNames = [...]string{PushValue: "push-value", PushDelta: "push-delta", PushNotify: "push-notify"}

// String names the mode.
func (m PushMode) String() string {
	if m < PushValue || m > PushNotify {
		return fmt.Sprintf("pushmode(%d)", int(m))
	}
	return modeNames[m]
}

// Update is what a subscriber receives.
type Update struct {
	Key     string
	Version uint64
	// Reply carries the value or delta for PushValue/PushDelta. Every
	// subscriber of the (mode, acknowledged version) group shares it: read-only.
	Reply *store.Reply
	// Notify is set for PushNotify: no payload, just metadata.
	Notify bool
	// ChangedBytes estimates how much the object changed since the
	// lease's acknowledged version (the delta's wire size, or the full
	// value's when no delta is smaller), included with notifications per
	// Section III.
	ChangedBytes int
	// Coalesced counts the publishes this update represents: 1, or more
	// when the fanout merged a burst into one frame carrying only the
	// latest version. A publish that raced a later one and reached the
	// lease after that one's frame is counted on the lease's next frame.
	Coalesced int

	shared *sharedFrame // set on updates a Manager built; nil on hand-made ones
}

// sharedFrame is one group build: the update every lease of the group is
// handed (Coalesced aside), its wire size, and one serving-tier encoding.
type sharedFrame struct {
	key  frameKey
	u    Update
	wire int
	once sync.Once
	enc  []byte
}

// WireBytes estimates the network payload of this update; notifications
// cost a small fixed header.
func (u *Update) WireBytes() int {
	switch {
	case u.shared != nil:
		return u.shared.wire
	case u.Notify:
		return notifyWireBytes
	case u.Reply != nil:
		return u.Reply.WireBytes()
	}
	return 0
}

const notifyWireBytes = 24 // key hash + version + change size

// Encoded returns encode(u), computed once per group build, so a serving
// tier serializes a frame once however many leases receive it. encode sees
// Coalesced == 0 and must not depend on per-lease state; the result is
// read-only. A hand-made Update is encoded on every call.
func (u Update) Encoded(encode func(Update) []byte) []byte {
	u.Coalesced = 0
	if u.shared == nil {
		return encode(u)
	}
	u.shared.once.Do(func() { u.shared.enc = encode(u) })
	return u.shared.enc
}

// Subscriber consumes pushed updates. Deliver runs on a fanout worker and
// must not block; a blocking Deliver occupies one fanout worker until it
// returns. A panic in Deliver is recovered and counted — it costs that
// lease one frame, never the fanout. Update.Reply is shared between
// subscribers and read-only: copy before modifying.
type Subscriber interface {
	Deliver(u Update)
}

// SubscriberFunc adapts a function to Subscriber.
type SubscriberFunc func(u Update)

// Deliver implements Subscriber.
func (f SubscriberFunc) Deliver(u Update) { f(u) }

// ErrLeaseExpired is returned by Renew/Cancel on an already-expired lease.
var ErrLeaseExpired = errors.New("replication: lease expired")

// ErrLeaseNotFound is returned by the ByID operations for unknown ids.
var ErrLeaseNotFound = errors.New("replication: lease not found")

// leaseState tracks where a lease sits in the fanout pipeline.
type leaseState int

const (
	leaseIdle       leaseState = iota // no pending frame
	leaseQueued                       // pending frame awaiting a worker
	leaseDelivering                   // a worker is delivering its frame
)

// Lease is one client's subscription to an object for a bounded period.
type Lease struct {
	// ID names the lease for the HTTP serving tier (renew/cancel/ack by
	// id); it is unique within the process.
	ID       string
	Key      string
	ClientID string
	Mode     PushMode

	mu          sync.Mutex
	expires     time.Time
	cancelled   bool
	ackVersion  uint64 // last version the subscriber holds (for deltas)
	deliveries  int
	coalesced   int64 // extra publishes merged into delivered frames
	bytesPushed int64
	sub         Subscriber

	// Fanout state: the coalescing slot. pendCount publishes since the
	// last delivery, collapsed to pendVersion (the latest); pendSince
	// stamps the oldest undelivered publish for the latency histogram.
	// merged is the key's publish count (keyRecord.published) the slot has
	// taken in so far.
	// sent is the slot version of the last delivered frame: a slot not
	// above it holds a publish that raced past a newer one and is dropped,
	// so frames never go backwards. carried holds a dropped slot's publish
	// count until the next frame goes out, so the frames' counts still add
	// up to the lease's publishes.
	state       leaseState
	merged      uint64
	pendCount   int
	pendVersion uint64
	sent        uint64
	carried     int
	pendSince   time.Time
	lastDeliver time.Time
}

// Expired reports whether the lease has lapsed at time now.
func (l *Lease) Expired(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.cancelled || now.After(l.expires)
}

// Expires returns the current expiry instant.
func (l *Lease) Expires() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expires
}

// AckVersion records the version the subscriber now holds, enabling
// delta pushes against it.
func (l *Lease) AckVersion(v uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if v > l.ackVersion {
		l.ackVersion = v
	}
}

// Deliveries returns how many update frames this lease received.
func (l *Lease) Deliveries() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.deliveries
}

// BytesPushed returns total payload bytes pushed over this lease.
func (l *Lease) BytesPushed() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytesPushed
}

// newLeaseID mints a process-unique lease id.
func newLeaseID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("replication: reading random lease id: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// Manager owns a home store's subscriptions and fans out updates. It
// programs against the ObjectStore seam, so any backend (in-memory,
// append-only log) sits underneath unchanged.
type Manager struct {
	store store.ObjectStore
	now   func() time.Time
	wall  bool // now is time.Now, whose readings carry the monotonic clock
	cfg   Config
	// OnRelease, when set, is invoked once for every lease leaving the
	// registry — cancelled, pruned after expiry, or swept — with no
	// manager locks held. The HTTP serving tier uses it to tear down the
	// per-lease stream mailbox.
	OnRelease func(*Lease)

	mu     sync.Mutex
	leases map[string][]*Lease // key -> registered leases
	byID   map[string]*Lease
	keys   map[string]*keyRecord // key -> its record, while it has leases
	seq    uint64                // the last stamp handed out

	// Fanout pipeline; see fanout.go.
	qmu       sync.Mutex
	qcond     *sync.Cond
	jobs      []*fanoutJob
	pending   map[string]*fanoutJob // key -> its queued job no worker has started
	closed    bool
	inflight  atomic.Int64 // lease visits queued or under way: the queue depth
	workers   sync.WaitGroup
	sweepStop chan struct{}
}

// NewManager wraps a home store with a one-worker fanout pool. nowFn may be
// nil (wall clock); tests and simulations inject virtual clocks. Call Close
// when done.
func NewManager(hs store.ObjectStore, nowFn func() time.Time) *Manager {
	return NewManagerWith(hs, nowFn, Config{})
}

// Subscribe registers a lease for key with the given duration and mode.
func (m *Manager) Subscribe(key, clientID string, mode PushMode, ttl time.Duration, sub Subscriber) (*Lease, error) {
	if sub == nil {
		return nil, fmt.Errorf("replication: nil subscriber")
	}
	if ttl <= 0 {
		return nil, fmt.Errorf("replication: lease duration %v must be positive", ttl)
	}
	if mode < PushValue || mode > PushNotify {
		return nil, fmt.Errorf("replication: unknown push mode %v", mode)
	}
	l := &Lease{ID: newLeaseID(), Key: key, ClientID: clientID, Mode: mode, expires: m.now().Add(ttl), sub: sub}
	m.mu.Lock()
	m.leases[key] = append(m.leases[key], l)
	m.byID[l.ID] = l
	l.merged = m.restamp(key).published
	m.mu.Unlock()
	mSubscribes.Inc()
	mLeasesActive.Add(1)
	return l, nil
}

// Renew extends an unexpired lease by ttl from now.
func (m *Manager) Renew(l *Lease, ttl time.Duration) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.cancelled || m.now().After(l.expires) {
		return fmt.Errorf("%w: %s/%s", ErrLeaseExpired, l.ClientID, l.Key)
	}
	l.expires = m.now().Add(ttl)
	mRenewals.Inc()
	return nil
}

// Cancel ends a lease early, as clients are expected to do when they no
// longer need update information. The lease leaves the registry
// immediately — ActiveLeases and memory reflect the cancellation without
// waiting for a future Publish of the same key.
func (m *Manager) Cancel(l *Lease) {
	l.mu.Lock()
	already := l.cancelled
	l.cancelled = true
	l.mu.Unlock()
	if already {
		return
	}
	mCancels.Inc()
	m.unregister(l)
}

// Expired reports whether l has lapsed on the manager's clock: cancelled,
// or past its expiry and not yet swept.
func (m *Manager) Expired(l *Lease) bool { return l.Expired(m.now()) }

// LeaseByID resolves a lease id, reporting false for unknown (or already
// released) ids.
func (m *Manager) LeaseByID(id string) (*Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.byID[id]
	return l, ok
}

// keyRecord is what the registry keeps for a key with leases. Its stamp
// changes whenever the key's lease list does, to a value no other change of
// any key has had, so a queued job whose stamp still matches holds exactly
// the key's current leases. published counts the key's publishes handed to
// the pool and version is the latest of them: a lease starts counting from
// published when it subscribes, and a job carries the count it was queued
// (or last folded) at, so a visit merges what the lease has not yet merged
// whichever order the jobs reach it in.
type keyRecord struct {
	stamp     uint64
	published uint64
	version   uint64
}

// restamp marks key's lease list changed and returns its record (m.mu held).
func (m *Manager) restamp(key string) *keyRecord {
	r := m.keys[key]
	if r == nil {
		r = &keyRecord{}
		m.keys[key] = r
	}
	m.seq++
	r.stamp = m.seq
	return r
}

// unregister removes l from the key index and the id registry, firing
// OnRelease exactly once per lease, and reports whether this call removed it.
func (m *Manager) unregister(l *Lease) bool {
	m.mu.Lock()
	_, removed := m.byID[l.ID]
	if removed {
		delete(m.byID, l.ID)
		if ls := slices.DeleteFunc(m.leases[l.Key], func(x *Lease) bool { return x == l }); len(ls) > 0 {
			m.leases[l.Key] = ls
			m.restamp(l.Key)
		} else {
			delete(m.leases, l.Key)
			delete(m.keys, l.Key)
		}
	}
	m.mu.Unlock()
	if removed {
		mLeasesActive.Add(-1)
		if m.OnRelease != nil {
			m.OnRelease(l)
		}
	}
	return removed
}

// prune releases a lapsed lease and reports whether this call removed it.
// Only that call counts it, so a lease that a sweep and a fanout pass both
// find lapsed is counted once, and only if it expired: a cancelled lease is
// Cancel's to release.
func (m *Manager) prune(l *Lease) bool {
	if !m.unregister(l) {
		return false
	}
	l.mu.Lock()
	expired := !l.cancelled
	l.mu.Unlock()
	if expired {
		mLeasesExpired.Inc()
	}
	return true
}

// ActiveLeases counts unexpired leases for a key.
func (m *Manager) ActiveLeases(key string) int {
	now := m.now()
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, l := range m.leases[key] {
		if !l.Expired(now) {
			n++
		}
	}
	return n
}

// Sweep prunes every expired lease across all keys — including keys that
// stopped publishing, which the fanout's prune never revisits — and
// returns how many it released. A manager runs it periodically when
// Config.SweepInterval is set; callers may also invoke it directly.
func (m *Manager) Sweep() int {
	now := m.now()
	m.mu.Lock()
	var expired []*Lease
	for _, ls := range m.leases {
		for _, l := range ls {
			if l.Expired(now) {
				expired = append(expired, l)
			}
		}
	}
	m.mu.Unlock()
	n := 0
	for _, l := range expired {
		if m.prune(l) {
			n++
		}
	}
	return n
}

// Publish writes a new version to the home store and hands it to the
// fanout pool, which pushes it to every active lease according to its mode
// and prunes expired leases as it goes. It returns the new version number.
func (m *Manager) Publish(key string, data []byte) (uint64, error) {
	return m.PublishCtx(context.Background(), key, data)
}

// PublishCtx is Publish with a caller-supplied context, so a publish
// that happens inside a traced operation (a search's re-analytics
// trigger, an HTTP handler) appears as a store-tagged child span.
//
// After the store write it copies the key's lease list and hands the pool
// one job carrying the version and the publish instant, or folds into the
// key's queued job, and returns; it takes no lease's lock, so its only error
// is the store's. The pool delivers afterwards (Flush waits for it): a lease
// whose build fails or whose subscriber panics is counted in
// coda_replication_push_errors_total (and _push_panics_total), logged, and
// skipped, at no cost to the other leases.
func (m *Manager) PublishCtx(ctx context.Context, key string, data []byte) (uint64, error) {
	_, sp := trace.Start(ctx, "replication.publish", trace.String("key", key))
	sp.SetComponent(trace.CompStoreWait)
	defer sp.End()
	version, err := m.store.Put(key, data)
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		return 0, fmt.Errorf("replication: publishing %q: %w", key, err)
	}
	leases := m.handOff(key, version)
	sp.SetAttr(trace.Int64("version", int64(version)), trace.Int("leases", leases))
	if lg := slog.Default(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("published object version", "key", key, "version", version, "leases", leases)
	}
	return version, nil
}

// book records one delivered frame standing for count publishes up to
// version on the lease (l.mu held) and in the caller's tally.
func (l *Lease) book(count int, version uint64, wire int64, t *tally) {
	l.sent = version
	l.deliveries++
	l.coalesced += int64(count - 1)
	l.bytesPushed += wire
	t.pushes[l.Mode]++
	t.bytes += wire
}

// push resolves the update of l's group at version (or newer) through the
// job's memo and hands it to the subscriber as one frame standing for count
// publishes, returning its wire size and whether the handoff completed.
// Build failures and subscriber panics are counted and logged, and cost this
// lease only; the caller books the delivery after the handoff, so a failed
// one is never counted.
func (m *Manager) push(j *fanoutJob, l *Lease, k frameKey, sub Subscriber, version uint64, count int) (wire int64, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
			mPushPanics.Inc()
			mPushErrors.Inc()
			slog.Error("subscriber panicked during delivery",
				"key", l.Key, "client", l.ClientID, "lease", l.ID, "panic", fmt.Sprint(p))
		}
	}()
	u, err := m.frame(j, l.Key, k, version)
	if err != nil {
		mPushErrors.Inc()
		slog.Warn("building push update failed",
			"key", l.Key, "client", l.ClientID, "lease", l.ID, "err", err)
		return 0, false
	}
	u.Coalesced = count
	sub.Deliver(u)
	return int64(u.WireBytes()), true
}

// frameKey names a group of leases one update serves: same payload mode,
// same acknowledged base version (always 0 for PushValue).
type frameKey struct {
	mode PushMode
	ack  uint64
}

// groupLocked returns the lease's group; l.mu must be held.
func (l *Lease) groupLocked() frameKey {
	if l.Mode == PushValue {
		return frameKey{mode: PushValue}
	}
	return frameKey{mode: l.Mode, ack: l.ackVersion}
}

// frame resolves group k's update at version or newer through the job's
// memo, so the store is read once per group and every lease in it gets the
// same Update. The latest build is checked without the job lock: a key
// usually has one group, and every lease after the first stops there. A
// memoized frame older than version (a later publish merged into the slot
// after the job's first build) is rebuilt. A notify frame carries its slot's
// version, not the store's, so it is reused at exactly that version: a newer
// one would run ahead of the lease's slot, and the lease's next frame, for a
// publish in between, would go backwards. Failed builds are not memoized:
// the error costs the lease that hit it and the next one retries.
func (m *Manager) frame(j *fanoutJob, key string, k frameKey, version uint64) (Update, error) {
	fits := func(f *sharedFrame) bool {
		return f != nil && f.key == k && (f.u.Version == version || f.u.Version > version && k.mode != PushNotify)
	}
	if f := j.last.Load(); fits(f) {
		return f.u, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if f := j.frames[k]; fits(f) {
		j.last.Store(f)
		return f.u, nil
	}
	f := &sharedFrame{key: k, u: Update{Key: key, Version: version, Notify: k.mode == PushNotify}}
	if !f.u.Notify || k.ack != 0 {
		reply, err := m.store.Get(key, k.ack) // ack 0 forces the full value
		switch {
		case f.u.Notify:
			if err == nil && !reply.Unchanged {
				f.u.ChangedBytes = reply.WireBytes()
			}
		case err != nil:
			return Update{}, err
		default:
			f.u.Version, f.u.Reply = reply.Version, reply
		}
	}
	f.wire, f.u.shared = f.u.WireBytes(), f
	mUpdateBuilds.Inc()
	if j.frames == nil {
		j.frames = map[frameKey]*sharedFrame{}
	}
	j.frames[k] = f
	j.last.Store(f)
	return f.u, nil
}
