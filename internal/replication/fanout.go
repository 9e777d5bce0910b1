package replication

import (
	"slices"
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
	// leases on idle keys — which no fanout pass revisits —
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
		leases: map[string][]*Lease{}, byID: map[string]*Lease{}, keys: map[string]*keyRecord{},
		pending: map[string]*fanoutJob{}}
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
	QueueDepth   int `json:"queue_depth"` // lease visits queued or under way
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

// Flush blocks until every queued lease visit is done and every frame it
// took has been handed to its subscriber — the barrier in-process callers,
// tests and the load harness use to observe a quiesced fanout.
func (m *Manager) Flush() {
	m.qmu.Lock()
	for m.inflight.Load() > 0 {
		m.qcond.Wait()
	}
	m.qmu.Unlock()
}

// fanoutJob is one unit of the pool's work: a publication — the key's
// publishes up to the count it carries (later ones fold in while no worker
// has started it) and the key's leases as they stood when it was queued —
// or, with through 0, a visit to leases whose slots already hold what they
// must deliver (a lease the coalescing window held back, or one a publish
// reached mid-delivery). Its leases are cut into one contiguous share per
// pool worker (one per lease when there are fewer), and its group builds are
// memoized for all of them. A worker
// claims leases one at a time from the front of the share it joined as and,
// once that is empty, steals single leases from the back of the others, so
// a blocked Deliver holds one worker and one lease, never the rest of its
// share.
type fanoutJob struct {
	// The publication; written under the manager's qmu until a worker
	// takes the job off the pending index, read-only after.
	key     string
	stamp   uint64    // the key's registry stamp when leases was copied
	through uint64    // the key's publish count it carries; 0 for a visit job
	version uint64    // the latest version among those publishes
	at      time.Time // when its first publish was handed over

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

// runDeliveries is how many deliveries a worker makes on one wall-clock
// reading: one run. At 200–300 ns a delivery (BenchmarkFanout1000, 2 vCPUs)
// a run takes under 10 µs, 1/50 of coda_replication_fanout_seconds'
// smallest bucket.
const runDeliveries = 32

// tally is a worker's own ledger: the clock reading that opened its current
// run, and what its pass owes the state all workers share. It is posted once
// per pass, so a worker on its own share writes no cache line another worker
// reads; posted per lease, the counters' cache lines cost more than the
// deliveries.
type tally struct {
	now       time.Time   // the reading that opened the run: expiry and lastDeliver use it
	run       int         // deliveries in the run so far
	since     []time.Time // publish instants of the run's frames, dated when it closes
	n         int64       // lease visits done
	pushes    [PushNotify + 1]int64
	bytes     int64
	coalesced int64
	lat       []float64 // publish-to-delivery seconds of closed runs

	held   []*Lease // leases marked queued, awaiting one visit job
	heldBy time.Duration
}

// endDelivery counts one delivery into the run and closes the run when it
// is full. An injected clock is called after every delivery.
func (m *Manager) endDelivery(t *tally) {
	if t.run++; t.run == runDeliveries || !m.wall {
		m.closeRun(t)
	}
}

// closeRun reads the clock, dates the run's frames by that closing reading —
// a delay is overstated by at most one run, never hidden — and opens the next
// run on it. On the wall clock the reading is the previous one plus the
// monotonic time since it: one monotonic read, and expiry, the coalescing
// window and fanout_seconds compare monotonic readings only.
func (m *Manager) closeRun(t *tally) {
	if m.wall {
		t.now = t.now.Add(time.Since(t.now))
	} else {
		t.now = m.now()
	}
	for _, s := range t.since {
		t.lat = append(t.lat, t.now.Sub(s).Seconds())
	}
	t.since, t.run = t.since[:0], 0
}

// post adds the tally to the shared counters, retires its visits from the
// pipeline — waking Flush on the last one — and empties it.
func (m *Manager) post(t *tally) {
	for mode := PushValue; mode <= PushNotify; mode++ {
		mPushes[mode].Add(t.pushes[mode])
	}
	mPushBytes.Add(t.bytes)
	mCoalesced.Add(t.coalesced)
	mFanoutSeconds.ObserveAll(t.lat)
	left := m.inflight.Add(-t.n)
	mQueueDepth.Set(float64(left))
	if left == 0 {
		m.qmu.Lock()
		m.qcond.Broadcast()
		m.qmu.Unlock()
	}
	t.n, t.pushes, t.bytes, t.coalesced, t.lat = 0, [PushNotify + 1]int64{}, 0, 0, t.lat[:0]
}

// hold parks a lease the caller marked queued until the pass hands its held
// leases over, as one visit job after the longest delay among them.
func (t *tally) hold(l *Lease, delay time.Duration) {
	t.held = append(t.held, l)
	t.heldBy = max(t.heldBy, delay)
}

// handHeld queues the leases the pass held back. It runs before every
// Deliver, so a stalled subscriber never holds them, and before the pass
// posts, so Flush never sees the pipeline empty while they wait.
func (m *Manager) handHeld(t *tally) {
	if len(t.held) > 0 {
		m.enqueue(t.held, t.heldBy)
		t.held, t.heldBy = nil, 0
	}
}

// handOff hands one publish of key at version to the pool and returns how
// many leases it reaches. While no worker has started the key's queued job
// and the key's lease list is the one that job copied, the publish folds
// into it; otherwise it queues a job over a copy of the list. The registry
// lock is held across the handoff, so the copy, the stamp and the count
// agree; nothing takes it while holding qmu.
func (m *Manager) handOff(key string, version uint64) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ls := m.leases[key]
	if len(ls) == 0 {
		return 0
	}
	at := m.now()
	r := m.keys[key]
	r.published++
	r.version = max(r.version, version)
	m.qmu.Lock()
	defer m.qmu.Unlock()
	if m.closed {
		return len(ls)
	}
	if j := m.pending[key]; j != nil && j.stamp == r.stamp {
		j.through, j.version = r.published, r.version
		return len(ls)
	}
	j := newFanoutJob(slices.Clone(ls), m.cfg.Workers)
	j.key, j.stamp, j.through, j.version, j.at = key, r.stamp, r.published, r.version, at
	m.pending[key] = j
	mQueueDepth.Set(float64(m.inflight.Add(int64(len(ls)))))
	m.jobs = append(m.jobs, j)
	m.qcond.Broadcast()
	return len(ls)
}

// enqueue hands leases the caller marked queued to the pool as one visit
// job — one lock acquisition and one wake however many there are — after
// delay when the coalescing window demands spacing.
func (m *Manager) enqueue(leases []*Lease, delay time.Duration) {
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
// visit that share and then whatever it can steal from the others, and
// retire the job once every share is empty. The queue lock is taken once per
// job, not per lease; the first worker to take a publication job closes it
// to further folds.
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
		if j.through > 0 && m.pending[j.key] == j {
			delete(m.pending, j.key)
		}
		m.qmu.Unlock()

		own := int(j.joined.Add(1) - 1)
		t.now = m.now()
		for l, ok := j.claim(own); ok; l, ok = j.claim(own) {
			m.visit(j, l, &t)
			t.n++
		}
		if t.run > 0 {
			m.closeRun(&t)
		}
		m.handHeld(&t)
		if t.n > 0 {
			m.post(&t)
		}
		spent = j
	}
}

// visit does one job's work on one lease under one lock acquisition: it
// prunes a lapsed lease, merges the publishes of the job's key the lease has
// not yet taken in into its slot, and, when no other visit owns the lease
// and the slot holds a publish, takes the slot and pushes it as one
// frame, built against the store's current state by the first lease of the
// group to get here. A lease another worker is delivering, or a visit job
// holds, keeps the merge for that owner; one the coalescing window must
// space out is held for a visit job. A slot not above the last slot the lease
// was sent (publishes that raced: one handed over after a later version's
// frame went out) is dropped and its publishes count as coalesced; the
// lease's next frame carries them in its publish count. Expiry and the
// lease's lastDeliver use the reading that opened the run.
func (m *Manager) visit(j *fanoutJob, l *Lease, t *tally) {
	l.mu.Lock()
	if l.cancelled || t.now.After(l.expires) {
		if j.through == 0 { // the visit job owns the queued slot
			l.state = leaseIdle
			l.pendCount, l.pendVersion = 0, 0
		}
		l.mu.Unlock()
		m.prune(l)
		return
	}
	if j.through > 0 {
		if j.through > l.merged {
			t.coalesced += l.merge(int(j.through-l.merged), j.version, j.at)
			l.merged = j.through
		}
		if l.state != leaseIdle || l.pendCount == 0 {
			l.mu.Unlock()
			return
		}
		if w := m.cfg.CoalesceWindow; w > 0 && !l.lastDeliver.IsZero() {
			if delay := w - t.now.Sub(l.lastDeliver); delay > 0 {
				l.state = leaseQueued
				l.mu.Unlock()
				t.hold(l, delay)
				return
			}
		}
	}
	count, version, since := l.pendCount, l.pendVersion, l.pendSince
	l.pendCount, l.pendVersion = 0, 0
	if version <= l.sent {
		l.coalesced += int64(count)
		l.carried += count
		l.state = leaseIdle
		l.mu.Unlock()
		t.coalesced++ // merge counted the slot's other count-1 publishes
		return
	}
	k, sub, carried := l.groupLocked(), l.sub, l.carried
	l.state = leaseDelivering
	l.mu.Unlock()

	m.handHeld(t)
	wire, ok := m.push(j, l, k, sub, version, count+carried)

	l.mu.Lock()
	if ok {
		l.carried -= carried
		l.book(count, version, wire, t)
		t.since = append(t.since, since)
	}
	l.lastDeliver, l.state = t.now, leaseIdle
	again := l.pendCount > 0 && !l.cancelled
	if again {
		l.state = leaseQueued
	}
	l.mu.Unlock()
	if again {
		t.hold(l, m.cfg.CoalesceWindow)
	}
	m.endDelivery(t)
}

// merge folds count publishes up to version into the lease's coalescing slot
// (l.mu held), dating an empty slot by at, the first publish of the job that
// merges them, and returns how many of them coalesced into a frame another
// publish already stands for.
func (l *Lease) merge(count int, version uint64, at time.Time) (coalesced int64) {
	coalesced = int64(count - 1)
	if l.pendCount == 0 {
		l.pendSince = at
	} else {
		coalesced++
	}
	l.pendCount += count
	l.pendVersion = max(l.pendVersion, version)
	return coalesced
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
