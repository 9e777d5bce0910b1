package replication

import (
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/store"
)

// Config tunes a Manager's fanout pipeline.
type Config struct {
	// Workers is the size of the fanout worker pool. 0 keeps the
	// synchronous inline fanout (Publish delivers before returning);
	// any positive count makes Publish enqueue-and-return, with at most
	// Workers concurrent deliveries across all leases.
	Workers int
	// CoalesceWindow, when positive, is the minimum gap between two
	// deliveries to the same lease: publishes landing inside the window
	// merge into the lease's pending slot and go out as one frame
	// carrying the latest version and the accumulated publish count. A
	// hot object with many watchers then costs O(watchers) frames per
	// window instead of O(watchers × updates). The window rides the wall
	// clock (timer-based), so managers on virtual clocks should leave it
	// zero. Async mode only.
	CoalesceWindow time.Duration
	// SweepInterval, when positive, runs Sweep on that period so expired
	// leases on idle keys — which the publish-path prune never revisits —
	// leave the registry. Async mode only; synchronous callers invoke
	// Sweep themselves.
	SweepInterval time.Duration
}

// NewManagerWith wraps a home store with an explicit fanout configuration.
// nowFn may be nil (wall clock); tests and simulations inject virtual
// clocks. Async managers (cfg.Workers > 0) own goroutines — call Close
// when done with them.
func NewManagerWith(hs store.ObjectStore, nowFn func() time.Time, cfg Config) *Manager {
	if nowFn == nil {
		nowFn = time.Now
	}
	m := &Manager{store: hs, now: nowFn, cfg: cfg,
		leases: map[string][]*Lease{}, byID: map[string]*Lease{}}
	m.qcond = sync.NewCond(&m.qmu)
	for i := 0; i < cfg.Workers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	if cfg.Workers > 0 && cfg.SweepInterval > 0 {
		m.sweepStop = make(chan struct{})
		m.workers.Add(1)
		go m.sweeper(cfg.SweepInterval)
	}
	return m
}

// async reports whether this manager fans out through the worker pool.
func (m *Manager) async() bool { return m.cfg.Workers > 0 }

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
// queued deliveries. It is idempotent and a no-op for synchronous
// managers. Publishes after Close still commit to the store; their
// fanout frames are dropped.
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
// its subscriber — the barrier tests and the load harness use to observe
// a quiesced fanout.
func (m *Manager) Flush() {
	m.qmu.Lock()
	for m.inflight.Load() > 0 {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
}

// fanoutJob is one publish's share of the fanout: the leases it moved from
// idle to queued, the cursor workers claim them through one at a time (so a
// blocked Deliver holds one worker and one lease, never the rest), and the
// memo of group builds they share. Synchronous managers use only the memo.
type fanoutJob struct {
	leases []*Lease
	next   atomic.Int64

	mu     sync.Mutex
	frames map[frameKey]*sharedFrame
	last   atomic.Pointer[sharedFrame] // the latest build, readable without mu
}

// tally is a worker's own ledger: its latest clock reading and what its run
// of deliveries owes the state all workers share. It is posted once per pass,
// so two workers on one job trade only the job's cursor between their CPUs;
// posted per lease, the counters' cache lines cost more than the deliveries.
type tally struct {
	now    time.Time
	n      int64 // leases through the pipeline (async only)
	pushes [PushNotify + 1]int64
	bytes  int64
	lat    []float64 // publish-to-delivery seconds (async only)
}

// post adds the tally to the shared counters, retires its leases from the
// pipeline — waking Flush on the last one — and empties it.
func (m *Manager) post(t *tally) {
	for mode := PushValue; mode <= PushNotify; mode++ {
		mPushes[mode].Add(t.pushes[mode])
	}
	mPushBytes.Add(t.bytes)
	mFanoutSeconds.ObserveAll(t.lat)
	if t.n > 0 {
		left := m.inflight.Add(-t.n)
		mQueueDepth.Set(float64(left))
		if left == 0 {
			m.qmu.Lock()
			m.qcond.Broadcast()
			m.qmu.Unlock()
		}
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
	j := &fanoutJob{leases: leases}
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

// worker drains the fanout queue: take the head job, claim its leases one
// by one alongside the other workers, and retire the job once its cursor
// runs out. The queue lock is taken once per job, not per lease.
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

		t.now = m.now()
		for i := j.next.Add(1); i <= int64(len(j.leases)); i = j.next.Add(1) {
			m.deliverPending(j, j.leases[i-1], &t)
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
// group to get here. The clock is read once per lease, after the delivery
// comes back, and kept in the tally for the next lease's expiry check.
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
	l.state = leaseDelivering
	l.mu.Unlock()

	wire, err := m.push(j, l, k, sub, version, count)
	t.now = m.now()

	l.mu.Lock()
	if err == nil {
		l.book(count, wire, t)
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
