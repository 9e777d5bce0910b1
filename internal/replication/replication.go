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
// A Manager turns each publish into one fanout job: the key's live leases,
// plus a memo of updates keyed by (mode, acknowledged version). Leases that
// share a group share one build — one store read — and are handed the same
// immutable Update, so a hot object costs one delta per distinct base, not
// one per watcher. The default (Config.Workers == 0) runs the job inline
// inside Publish, which suits in-process consumers like the experiments.
// With Config.Workers > 0 Publish merges the update into each lease's
// coalescing slot, enqueues the job and returns; a bounded worker pool claims
// leases from it one at a time, so a slow, failing, or panicking subscriber
// never stalls the publisher or any other lease, and a burst of updates
// collapses into one frame per lease carrying the latest version. That is
// the serving tier behind httpapi's SSE/long-poll lease endpoints.
package replication

import (
	"cmp"
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
// lease population, and the async fanout pipeline.
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
	// ChangedBytes estimates how much the object changed (delta wire
	// size), included with notifications per Section III.
	ChangedBytes int
	// Coalesced counts the publishes this update represents: 1 on the
	// synchronous path, possibly more when the async fanout merged a
	// burst into one frame carrying only the latest version.
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

// Subscriber consumes pushed updates. Deliver runs on the publisher's
// goroutine (synchronous managers) or on a fanout worker (async managers)
// and must not block; a blocking Deliver occupies one fanout worker until
// it returns. A panic in Deliver is recovered and counted — it costs that
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

// leaseState tracks where a lease sits in the async fanout pipeline.
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

	// Async fanout state: the coalescing slot. pendCount publishes since
	// the last delivery, collapsed to pendVersion (the latest); pendSince
	// stamps the oldest undelivered publish for the latency histogram.
	state       leaseState
	pendCount   int
	pendVersion uint64
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

// CoalescedUpdates returns how many publishes beyond one-per-frame were
// merged into this lease's delivered frames.
func (l *Lease) CoalescedUpdates() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.coalesced
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
	cfg   Config
	// Logger receives per-publish debug logs; nil uses slog.Default().
	Logger *slog.Logger
	// OnRelease, when set, is invoked once for every lease leaving the
	// registry — cancelled, pruned after expiry, or swept — with no
	// manager locks held. The HTTP serving tier uses it to tear down the
	// per-lease stream mailbox.
	OnRelease func(*Lease)

	mu     sync.Mutex
	leases map[string][]*Lease // key -> registered leases
	byID   map[string]*Lease

	// Async fanout pipeline; see fanout.go.
	qmu       sync.Mutex
	qcond     *sync.Cond
	jobs      []*fanoutJob
	closed    bool
	inflight  atomic.Int64 // leases in state queued or delivering: the queue depth
	workers   sync.WaitGroup
	sweepStop chan struct{}
}

func (m *Manager) logger() *slog.Logger { return cmp.Or(m.Logger, slog.Default()) }

// NewManager wraps a home store with synchronous fanout. nowFn may be nil
// (wall clock); tests and simulations inject virtual clocks.
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

// LeaseByID resolves a lease id, reporting false for unknown (or already
// released) ids.
func (m *Manager) LeaseByID(id string) (*Lease, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	l, ok := m.byID[id]
	return l, ok
}

// unregister removes l from the key index and the id registry, firing
// OnRelease exactly once per lease.
func (m *Manager) unregister(l *Lease) {
	m.mu.Lock()
	_, removed := m.byID[l.ID]
	if removed {
		delete(m.byID, l.ID)
		if ls := slices.DeleteFunc(m.leases[l.Key], func(x *Lease) bool { return x == l }); len(ls) > 0 {
			m.leases[l.Key] = ls
		} else {
			delete(m.leases, l.Key)
		}
	}
	m.mu.Unlock()
	if removed {
		mLeasesActive.Add(-1)
		if m.OnRelease != nil {
			m.OnRelease(l)
		}
	}
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
// stopped publishing, which the publish-path prune never revisits — and
// returns how many it released. Async managers run this periodically
// (Config.SweepInterval); synchronous callers may invoke it directly.
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
	for _, l := range expired {
		mLeasesExpired.Inc()
		m.unregister(l)
	}
	return len(expired)
}

// Publish writes a new version to the home store and pushes it to every
// active lease according to its mode, pruning expired leases as it goes.
// It returns the new version number.
func (m *Manager) Publish(key string, data []byte) (uint64, error) {
	return m.PublishCtx(context.Background(), key, data)
}

// PublishCtx is Publish with a caller-supplied context, so a publish
// that happens inside a traced operation (a search's re-analytics
// trigger, an HTTP handler) appears as a store-tagged child span with
// its fan-out recorded.
//
// Synchronous managers deliver inline: every active lease is attempted
// even when building or delivering an earlier lease's update fails, and
// the per-lease failures come back joined (errors.Join) alongside the
// committed version. Async managers merge the update into each lease's
// coalescing slot and return as soon as the store write commits.
func (m *Manager) PublishCtx(ctx context.Context, key string, data []byte) (uint64, error) {
	_, sp := trace.Start(ctx, "replication.publish", trace.String("key", key))
	sp.SetComponent(trace.CompStoreWait)
	defer sp.End()
	version, err := m.store.Put(key, data)
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		return 0, fmt.Errorf("replication: publishing %q: %w", key, err)
	}

	// The registry lock covers only the copy: expiry is decided lease by
	// lease below, so a hot key's scan never delays other keys' lease calls.
	m.mu.Lock()
	snapshot := append([]*Lease(nil), m.leases[key]...)
	m.mu.Unlock()
	var subscribers, groups int
	var fanoutErr error
	if len(snapshot) > 0 {
		subscribers, groups, fanoutErr = m.fanout(snapshot, version)
	}
	sp.SetAttr(trace.Int64("version", int64(version)), trace.Int("subscribers", subscribers), trace.Int("groups", groups))
	if lg := m.logger(); lg.Enabled(context.Background(), slog.LevelDebug) {
		lg.Debug("published object version",
			"key", key, "version", version, "subscribers", subscribers, "groups", groups, "async", m.async())
	}
	return version, fanoutErr
}

// fanout turns one publish into its job: it prunes the expired leases of
// the snapshot (which it owns), counts the distinct (mode, ack) groups among
// the live ones, and either delivers inline (synchronous managers; a lease
// whose build fails or whose subscriber panics is recorded and skipped) or
// merges the publish into every coalescing slot and enqueues the leases that
// went idle→queued: at most two jobs, the second for leases the coalescing
// window holds back.
func (m *Manager) fanout(snapshot []*Lease, version uint64) (subscribers, groups int, err error) {
	now := m.now()
	ready, late := snapshot[:0], []*Lease(nil)
	var lateBy time.Duration
	seen := map[frameKey]struct{}{}
	var last frameKey
	var inline fanoutJob // the synchronous manager's job: only the memo is used
	var t tally
	var errs []error
	for _, l := range snapshot {
		l.mu.Lock()
		if l.cancelled || now.After(l.expires) {
			l.mu.Unlock()
			mLeasesExpired.Inc()
			m.unregister(l)
			continue
		}
		k, sub := l.groupLocked(), l.sub
		queued, delay := false, time.Duration(0)
		if m.async() {
			queued, delay = m.merge(l, version, now)
		}
		l.mu.Unlock()
		subscribers++
		if k != last || len(seen) == 0 {
			seen[k], last = struct{}{}, k
		}
		switch {
		case !m.async():
			wire, err := m.push(&inline, l, k, sub, version, 1)
			if err != nil {
				errs = append(errs, err)
				continue
			}
			l.mu.Lock()
			l.book(1, wire, &t)
			l.mu.Unlock()
		case !queued: // the worker's post-delivery check picks the slot up
		case delay > 0:
			late = append(late, l)
			lateBy = max(lateBy, delay)
		default:
			ready = append(ready, l)
		}
	}
	if !m.async() {
		m.post(&t)
		return subscribers, len(seen), errors.Join(errs...)
	}
	m.enqueue(ready, 0)
	m.enqueue(late, lateBy)
	return subscribers, len(seen), nil
}

// book records one delivered frame standing for count publishes on the lease
// (l.mu held) and in the caller's tally.
func (l *Lease) book(count int, wire int64, t *tally) {
	l.deliveries++
	l.coalesced += int64(count - 1)
	l.bytesPushed += wire
	t.pushes[l.Mode]++
	t.bytes += wire
}

// push resolves the update of l's group at version (or newer) through the
// job's memo and hands it to the subscriber as one frame standing for count
// publishes, returning its wire size. Build failures and subscriber panics
// are counted, logged and returned, and cost this lease only; the caller
// books the delivery after the handoff, so a failed one is never counted.
func (m *Manager) push(j *fanoutJob, l *Lease, k frameKey, sub Subscriber, version uint64, count int) (wire int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			mPushPanics.Inc()
			mPushErrors.Inc()
			err = fmt.Errorf("replication: subscriber %s/%s panicked: %v", l.ClientID, l.Key, p)
			m.logger().Error("subscriber panicked during delivery",
				"key", l.Key, "client", l.ClientID, "lease", l.ID, "panic", fmt.Sprint(p))
		}
	}()
	u, err := m.frame(j, l.Key, k, version)
	if err != nil {
		mPushErrors.Inc()
		m.logger().Warn("building push update failed",
			"key", l.Key, "client", l.ClientID, "lease", l.ID, "err", err)
		return 0, fmt.Errorf("replication: building update for %s: %w", l.ClientID, err)
	}
	u.Coalesced = count
	sub.Deliver(u)
	return int64(u.WireBytes()), nil
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
// after the job's first build) is rebuilt. Failed builds are not memoized:
// the error costs the lease that hit it and the next one retries.
func (m *Manager) frame(j *fanoutJob, key string, k frameKey, version uint64) (Update, error) {
	if f := j.last.Load(); f != nil && f.key == k && f.u.Version >= version {
		return f.u, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if f := j.frames[k]; f != nil && f.u.Version >= version {
		j.last.Store(f)
		return f.u, nil
	}
	f := &sharedFrame{key: k, u: Update{Key: key, Version: version, Notify: k.mode == PushNotify}}
	if !f.u.Notify || k.ack != 0 {
		reply, err := m.store.Get(key, k.ack) // ack 0 forces the full value
		switch {
		case f.u.Notify:
			if err == nil && reply.IsDelta() {
				f.u.ChangedBytes = reply.Delta.WireSize()
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
