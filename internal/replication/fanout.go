package replication

import (
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/store"
)

// Config tunes a Manager's fanout pipeline.
type Config struct {
	// Workers is the size of the fanout worker pool, at most Workers
	// concurrent deliveries across all leases (<= 0 means one).
	Workers int
	// CoalesceWindow, when positive, is the minimum gap between two
	// deliveries to the same lease: publishes landing inside the window
	// merge into the lease's pending slot and go out as one frame
	// carrying the latest version and the accumulated publish count. A
	// hot object with many watchers then costs O(watchers) frames per
	// window instead of O(watchers × updates). The window rides the wall
	// clock (timer-based), so managers on virtual clocks should leave it
	// zero.
	CoalesceWindow time.Duration
	// SweepInterval, when positive, runs Sweep on that period so expired
	// leases on idle keys — which the publish-path prune never revisits —
	// leave the registry. Zero leaves Sweep to the caller.
	SweepInterval time.Duration
}

// NewManagerWith wraps a home store with an explicit fanout configuration.
// nowFn may be nil (wall clock); tests and simulations inject virtual
// clocks. The manager owns goroutines: call Close when done with it.
func NewManagerWith(hs store.ObjectStore, nowFn func() time.Time, cfg Config) *Manager {
	wall := nowFn == nil
	if wall {
		nowFn = time.Now
	}
	cfg.Workers = max(cfg.Workers, 1)
	m := &Manager{store: hs, now: nowFn, wall: wall, cfg: cfg,
		leases: map[string][]*Lease{}, byID: map[string]*Lease{}}
	m.qcond = sync.NewCond(&m.qmu)
	for range cfg.Workers {
		m.workers.Add(1)
		go m.worker()
	}
	if cfg.SweepInterval > 0 {
		m.sweepStop = make(chan struct{})
		m.workers.Add(1)
		go m.sweeper(cfg.SweepInterval)
	}
	return m
}

// ManagerStats is a point-in-time snapshot of the serving tier.
type ManagerStats struct {
	ActiveLeases int `json:"active_leases"`
	QueueDepth   int `json:"queue_depth"` // leases holding a frame not yet handed over
	Workers      int `json:"workers"`
}

// Stats snapshots the lease registry and fanout queue.
func (m *Manager) Stats() ManagerStats {
	m.mu.Lock()
	active := len(m.byID)
	m.mu.Unlock()
	return ManagerStats{ActiveLeases: active, QueueDepth: int(m.inflight.Load()), Workers: m.cfg.Workers}
}

// Close stops the worker pool and the sweeper after draining already
// queued deliveries. It is idempotent. Publishes after Close still commit
// to the store; their fanout frames are dropped.
func (m *Manager) Close() {
	m.qmu.Lock()
	if m.closed {
		m.qmu.Unlock()
		return
	}
	m.closed = true
	m.qcond.Broadcast()
	m.qmu.Unlock()
	if m.sweepStop != nil {
		close(m.sweepStop)
	}
	m.workers.Wait()
}

// Flush blocks until every queued or in-delivery frame has been handed to
// its subscriber — the barrier in-process callers, tests and the load
// harness use to observe a quiesced fanout.
func (m *Manager) Flush() {
	m.qmu.Lock()
	for m.inflight.Load() > 0 {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
}

// fanoutJob is one publish's share of the fanout: the leases it moved from
// idle to queued, cut into one contiguous share per pool worker (one per
// lease when there are fewer), and the memo of group builds they share. A
// worker claims leases one at a time from the front of the share it joined
// as and, once that is empty, steals single leases from the back of the
// others, so a blocked Deliver holds one worker and one lease, never the
// rest of its share.
type fanoutJob struct {
	leases []*Lease
	shares []share
	joined atomic.Int64 // shares handed to joining workers so far

	mu     sync.Mutex
	frames map[frameKey]*sharedFrame
	last   atomic.Pointer[sharedFrame] // the latest build, readable without mu
}

// share is the unclaimed run [lo, hi) of a job's leases, lo in the low 32
// bits of one word and hi in the high 32, alone on its cache line: its
// owner's claims touch no line another worker writes unless one steals.
type share struct {
	span atomic.Uint64
	_    [56]byte
}

// newFanoutJob cuts leases into min(workers, len(leases)) shares whose
// sizes differ by at most one.
func newFanoutJob(leases []*Lease, workers int) *fanoutJob {
	n := min(workers, len(leases))
	j := &fanoutJob{leases: leases, shares: make([]share, n)}
	for i := range j.shares {
		lo, hi := uint64(i*len(leases)/n), uint64((i+1)*len(leases)/n)
		j.shares[i].span.Store(hi<<32 | lo)
	}
	return j
}

// take claims the share's first lease, or with back its last, reporting
// false once the share is empty.
func (s *share) take(back bool) (int, bool) {
	for {
		w := s.span.Load()
		lo, hi := uint32(w), uint32(w>>32)
		if lo >= hi {
			return 0, false
		}
		next, i := w+1, lo // lo++
		if back {
			next, i = w-1<<32, hi-1 // hi--
		}
		if s.span.CompareAndSwap(w, next) {
			return int(i), true
		}
	}
}

// claim hands the worker that joined as share own its next lease: the
// front of its own share while it lasts, then the back of the next
// non-empty share after it. It returns false once every share is empty.
func (j *fanoutJob) claim(own int) (*Lease, bool) {
	n := len(j.shares)
	if own < n {
		if i, ok := j.shares[own].take(false); ok {
			return j.leases[i], true
		}
	}
	for k := 1; k <= n; k++ {
		if i, ok := j.shares[(own+k)%n].take(true); ok {
			return j.leases[i], true
		}
	}
	return nil, false
}

// tally is a worker's own ledger: its latest clock reading and what its run
// of deliveries owes the state all workers share. It is posted once per pass,
// so a worker on its own share writes no cache line another worker reads;
// posted per lease, the counters' cache lines cost more than the deliveries.
type tally struct {
	now    time.Time
	n      int64 // leases through the pipeline
	pushes [PushNotify + 1]int64
	bytes  int64
	lat    []float64 // publish-to-delivery seconds
}

// post adds the tally to the shared counters, retires its leases from the
// pipeline — waking Flush on the last one — and empties it.
func (m *Manager) post(t *tally) {
	for mode := PushValue; mode <= PushNotify; mode++ {
		mPushes[mode].Add(t.pushes[mode])
	}
	mPushBytes.Add(t.bytes)
	mFanoutSeconds.ObserveAll(t.lat)
	left := m.inflight.Add(-t.n)
	mQueueDepth.Set(float64(left))
	if left == 0 {
		m.qmu.Lock()
		m.qcond.Broadcast()
		m.qmu.Unlock()
	}
	*t = tally{lat: t.lat[:0]}
}

// merge folds one publish into the lease's coalescing slot (l.mu held) and
// reports whether the lease went idle→queued and so needs a place in the
// publish's job, after delay when the coalescing window demands spacing.
func (m *Manager) merge(l *Lease, version uint64, now time.Time) (queued bool, delay time.Duration) {
	if l.pendCount == 0 {
		l.pendSince = now
	} else {
		mCoalesced.Inc()
	}
	l.pendCount++
	if version > l.pendVersion {
		l.pendVersion = version
	}
	if l.state != leaseIdle {
		return false, 0
	}
	l.state = leaseQueued
	if w := m.cfg.CoalesceWindow; w > 0 && !l.lastDeliver.IsZero() {
		delay = w - now.Sub(l.lastDeliver)
	}
	return true, delay
}

// enqueue hands queued leases to the worker pool as one job — one lock
// acquisition and one wake however many there are — after delay when the
// coalescing window demands spacing.
func (m *Manager) enqueue(leases []*Lease, delay time.Duration) {
	if len(leases) == 0 {
		return
	}
	j := newFanoutJob(leases, m.cfg.Workers)
	mQueueDepth.Set(float64(m.inflight.Add(int64(len(leases)))))
	if delay > 0 {
		time.AfterFunc(delay, func() { m.enqueueNow(j) })
		return
	}
	m.enqueueNow(j)
}

func (m *Manager) enqueueNow(j *fanoutJob) {
	m.qmu.Lock()
	if m.closed {
		m.qmu.Unlock()
		for _, l := range j.leases {
			l.mu.Lock()
			l.state = leaseIdle
			l.pendCount, l.pendVersion = 0, 0
			l.mu.Unlock()
		}
		m.post(&tally{n: int64(len(j.leases))})
		return
	}
	m.jobs = append(m.jobs, j)
	m.qcond.Broadcast()
	m.qmu.Unlock()
}

// worker drains the fanout queue: take the head job and a share of it,
// deliver that share and then whatever it can steal from the others, and
// retire the job once every share is empty. The queue lock is taken once per
// job, not per lease.
func (m *Manager) worker() {
	defer m.workers.Done()
	var spent *fanoutJob // the job this worker last found exhausted
	var t tally
	for {
		m.qmu.Lock()
		if len(m.jobs) > 0 && m.jobs[0] == spent {
			m.jobs[0] = nil
			m.jobs = m.jobs[1:]
		}
		for len(m.jobs) == 0 && !m.closed {
			m.qcond.Wait()
		}
		if len(m.jobs) == 0 {
			m.qmu.Unlock()
			return
		}
		j := m.jobs[0]
		m.qmu.Unlock()

		own := int(j.joined.Add(1) - 1)
		t.now = m.now()
		for l, ok := j.claim(own); ok; l, ok = j.claim(own) {
			m.deliverPending(j, l, &t)
			t.n++
		}
		if t.n > 0 {
			m.post(&t)
		}
		spent = j
	}
}

// deliverPending swaps out the lease's coalescing slot and pushes it as one
// frame, built against the store's current state by the first lease of the
// group to get here. A slot not above the last slot the lease was sent (a
// publish whose merge landed after a later publish's frame went out) is
// dropped and its publishes count as coalesced; the lease's next frame
// carries them in its publish count. The clock is read after the
// delivery comes back, and kept in the tally for the next lease's expiry
// check. On the wall clock that reading is the pass's previous one plus the
// monotonic time since it: one monotonic read, and expiry, the coalescing
// window and fanout_seconds compare monotonic readings only. An injected
// clock is called every time.
func (m *Manager) deliverPending(j *fanoutJob, l *Lease, t *tally) {
	l.mu.Lock()
	if l.cancelled || t.now.After(l.expires) {
		expired := !l.cancelled
		l.state = leaseIdle
		l.pendCount, l.pendVersion = 0, 0
		l.mu.Unlock()
		if expired {
			mLeasesExpired.Inc()
			m.unregister(l)
		}
		return
	}
	count, version, since := l.pendCount, l.pendVersion, l.pendSince
	k, sub := l.groupLocked(), l.sub
	l.pendCount, l.pendVersion = 0, 0
	if version <= l.sent {
		l.coalesced += int64(count)
		l.carried += count
		l.state = leaseIdle
		l.mu.Unlock()
		mCoalesced.Inc() // merge counted the slot's other count-1 publishes
		return
	}
	carried := l.carried
	l.state = leaseDelivering
	l.mu.Unlock()

	wire, ok := m.push(j, l, k, sub, version, count+carried)
	if m.wall {
		t.now = t.now.Add(time.Since(t.now))
	} else {
		t.now = m.now()
	}

	l.mu.Lock()
	if ok {
		l.carried -= carried
		l.book(count, version, wire, t)
		t.lat = append(t.lat, t.now.Sub(since).Seconds())
	}
	l.lastDeliver, l.state = t.now, leaseIdle
	again := l.pendCount > 0 && !l.cancelled
	if again {
		l.state = leaseQueued
	}
	l.mu.Unlock()
	if again {
		m.enqueue([]*Lease{l}, m.cfg.CoalesceWindow)
	}
}

// sweeper periodically prunes expired leases on idle keys.
func (m *Manager) sweeper(every time.Duration) {
	defer m.workers.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			m.Sweep()
		case <-m.sweepStop:
			return
		}
	}
}
