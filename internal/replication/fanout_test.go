package replication

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/store"
)

// flakyStore wraps an ObjectStore and fails Get while armed — the lever
// for forcing update-build errors against specific leases.
type flakyStore struct {
	store.ObjectStore
	mu       sync.Mutex
	failGets int // fail this many upcoming Get calls
}

func (f *flakyStore) Get(key string, have uint64) (*store.Reply, error) {
	f.mu.Lock()
	fail := f.failGets > 0
	if fail {
		f.failGets--
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("flaky store: injected Get failure")
	}
	return f.ObjectStore.Get(key, have)
}

func (f *flakyStore) arm(n int) {
	f.mu.Lock()
	f.failGets = n
	f.mu.Unlock()
}

// registered reports how many leases the registry holds for key,
// regardless of expiry — the memory-accounting view Sweep maintains.
func (m *Manager) registered(key string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.leases[key])
}

// Regression (PR 8): an update-build error for one lease must not starve the
// remaining subscribers — PublishCtx used to return on the first failure.
func TestPublishContinuesPastFailingSubscriber(t *testing.T) {
	fs := &flakyStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 32})}
	clock := newFakeClock()
	m := NewManagerWith(fs, clock.Now, Config{})
	cols := make([]*collector, 3)
	for i := range cols {
		cols[i] = &collector{}
		if _, err := m.Subscribe("o1", fmt.Sprintf("c%d", i), PushValue, time.Hour, cols[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := mPushErrors.Value()
	fs.arm(1) // first lease's Get fails; the publish Put itself is clean
	v, err := m.Publish("o1", []byte("payload"))
	if err == nil {
		t.Fatal("want a joined fanout error for the failed lease")
	}
	if v != 1 {
		t.Fatalf("version %d, want 1 (store write committed)", v)
	}
	delivered := 0
	for _, c := range cols {
		delivered += c.count()
	}
	if delivered != 2 {
		t.Fatalf("delivered to %d of 3 subscribers; the failure must only cost its own lease", delivered)
	}
	if got := mPushErrors.Value() - before; got != 1 {
		t.Fatalf("coda_replication_push_errors_total moved by %d, want 1", got)
	}
	// The failed lease keeps its slot and catches the next publish.
	if _, err := m.Publish("o1", []byte("payload2")); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range cols {
		total += c.count()
	}
	if total != 5 {
		t.Fatalf("after recovery publish, %d total deliveries, want 5", total)
	}
}

// Regression (PR 8): errors from several leases come back joined, each
// identifiable, and every healthy lease still delivers.
func TestPublishJoinsAllFanoutErrors(t *testing.T) {
	fs := &flakyStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 32})}
	m := NewManagerWith(fs, newFakeClock().Now, Config{})
	ok := &collector{}
	if _, err := m.Subscribe("o1", "bad-a", PushValue, time.Hour, &collector{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe("o1", "bad-b", PushValue, time.Hour, &collector{}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Subscribe("o1", "good", PushValue, time.Hour, ok); err != nil {
		t.Fatal(err)
	}
	fs.arm(2)
	_, err := m.Publish("o1", []byte("x"))
	if err == nil {
		t.Fatal("want joined errors")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) {
		t.Fatalf("error %v is not an errors.Join aggregate", err)
	}
	if n := len(joined.Unwrap()); n != 2 {
		t.Fatalf("joined %d errors, want 2", n)
	}
	if ok.count() != 1 {
		t.Fatalf("healthy subscriber got %d deliveries, want 1", ok.count())
	}
}

// Regression (PR 8): Cancel used to only flip a flag, leaking the lease in
// m.leases until the next Publish of that key — keys that stop publishing
// leaked every lease ever registered. Cancel must prune immediately.
func TestCancelFreesLeaseWithoutPublish(t *testing.T) {
	_, m, _ := setup()
	l, err := m.Subscribe("idle-key", "c1", PushNotify, time.Hour, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	if m.registered("idle-key") != 1 {
		t.Fatal("lease not registered")
	}
	m.Cancel(l)
	if n := m.registered("idle-key"); n != 0 {
		t.Fatalf("cancelled lease still in registry (%d entries) with no publish to prune it", n)
	}
	if m.ActiveLeases("idle-key") != 0 {
		t.Fatal("ActiveLeases counts a cancelled lease")
	}
	if _, ok := m.LeaseByID(l.ID); ok {
		t.Fatal("cancelled lease still resolvable by id")
	}
	if st := m.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("Stats().ActiveLeases = %d after cancel", st.ActiveLeases)
	}
	m.Cancel(l) // idempotent
}

// Regression (PR 8): expired leases on keys that never publish again must
// leave the registry via Sweep, not linger forever.
func TestSweepFreesExpiredLeasesOnIdleKeys(t *testing.T) {
	_, m, clock := setup()
	for i := 0; i < 4; i++ {
		if _, err := m.Subscribe("idle", fmt.Sprintf("c%d", i), PushNotify, time.Minute, &collector{}); err != nil {
			t.Fatal(err)
		}
	}
	keeper, err := m.Subscribe("idle", "keeper", PushNotify, time.Hour, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Minute)
	if n := m.Sweep(); n != 4 {
		t.Fatalf("swept %d leases, want 4", n)
	}
	if m.registered("idle") != 1 {
		t.Fatalf("registry holds %d leases for idle key, want 1", m.registered("idle"))
	}
	if _, ok := m.LeaseByID(keeper.ID); !ok {
		t.Fatal("sweep removed an unexpired lease")
	}
	if n := m.Sweep(); n != 0 {
		t.Fatalf("second sweep found %d, want 0", n)
	}
}

// panicSubscriber panics on every delivery.
type panicSubscriber struct{ calls atomic.Int64 }

func (p *panicSubscriber) Deliver(Update) {
	p.calls.Add(1)
	panic("subscriber bug")
}

// Regression (PR 8): deliveries/bytesPushed were incremented before
// Deliver ran, so a panicking delivery still counted as delivered — and
// the panic killed the whole fanout. Accounting must follow success, and
// the panic must be contained to the one lease.
func TestPanicInDeliverIsolatedAndNotCounted(t *testing.T) {
	_, m, _ := setup()
	bad := &panicSubscriber{}
	badLease, err := m.Subscribe("o1", "bad", PushValue, time.Hour, bad)
	if err != nil {
		t.Fatal(err)
	}
	good := &collector{}
	goodLease, err := m.Subscribe("o1", "good", PushValue, time.Hour, good)
	if err != nil {
		t.Fatal(err)
	}
	before := mPushPanics.Value()
	if _, err := m.Publish("o1", []byte("v1")); err == nil {
		t.Fatal("want an error reporting the panicking subscriber")
	}
	if bad.calls.Load() != 1 {
		t.Fatalf("panicking subscriber called %d times, want 1", bad.calls.Load())
	}
	if badLease.Deliveries() != 0 {
		t.Fatalf("panicked delivery counted: deliveries=%d", badLease.Deliveries())
	}
	if badLease.BytesPushed() != 0 {
		t.Fatalf("panicked delivery accounted %d bytes", badLease.BytesPushed())
	}
	if good.count() != 1 || goodLease.Deliveries() != 1 {
		t.Fatalf("healthy subscriber got %d deliveries, want 1", good.count())
	}
	if got := mPushPanics.Value() - before; got != 1 {
		t.Fatalf("panic counter moved by %d, want 1", got)
	}
}

// blockingSubscriber holds every delivery until released.
type blockingSubscriber struct {
	entered chan struct{} // one token per delivery that has started
	release chan struct{} // closed to let deliveries finish
	col     collector
}

func newBlockingSubscriber() *blockingSubscriber {
	return &blockingSubscriber{entered: make(chan struct{}, 1024), release: make(chan struct{})}
}

func (b *blockingSubscriber) Deliver(u Update) {
	b.entered <- struct{}{}
	<-b.release
	b.col.Deliver(u)
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// Tentpole: with the worker pool, Publish enqueues and returns — a
// stalled subscriber occupies one worker, every other lease still gets
// its frame, and the publisher never blocks. All three leases ride one
// fanout job: the stalled one holds its own claim, not the job.
func TestAsyncPublishNotBlockedBySlowSubscriber(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 2})
	defer m.Close()
	slow := newBlockingSubscriber()
	if _, err := m.Subscribe("o1", "slow", PushValue, time.Hour, slow); err != nil {
		t.Fatal(err)
	}
	fast := &collector{}
	fastLease, err := m.Subscribe("o1", "fast", PushValue, time.Hour, fast)
	if err != nil {
		t.Fatal(err)
	}
	behind := &collector{}
	if _, err := m.Subscribe("o1", "behind", PushValue, time.Hour, behind); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		if _, err := m.Publish("o1", []byte("v1")); err != nil {
			t.Error(err)
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked behind a stalled subscriber")
	}
	<-slow.entered // the stalled delivery is in flight...
	waitFor(t, "fast subscriber's frame", func() bool { return fast.count() == 1 })
	waitFor(t, "the frame of the lease queued behind both", func() bool { return behind.count() == 1 })
	if fast.last().Reply != behind.last().Reply {
		t.Fatal("two leases of one group and one job got different Reply objects")
	}
	if fastLease.Deliveries() != 1 {
		t.Fatal("fast lease delivery not accounted")
	}
	close(slow.release)
	m.Flush()
	if slow.col.count() != 1 {
		t.Fatalf("slow subscriber got %d frames after release, want 1", slow.col.count())
	}
}

// Tentpole: a burst of publishes lands as few coalesced frames carrying
// the latest version and the full publish count — O(watchers) frames per
// flush, not O(watchers × updates).
func TestAsyncFanoutCoalescesBursts(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 1})
	defer m.Close()
	sub := newBlockingSubscriber()
	lease, err := m.Subscribe("hot", "c1", PushNotify, time.Hour, sub)
	if err != nil {
		t.Fatal(err)
	}
	const publishes = 10
	var last uint64
	for i := 0; i < publishes; i++ {
		v, err := m.Publish("hot", []byte(fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	// First frame is stuck in Deliver; everything later merged behind it.
	<-sub.entered
	close(sub.release)
	m.Flush()
	frames := sub.col.count()
	if frames < 1 || frames > 3 {
		t.Fatalf("%d publishes produced %d frames, want coalescing into <=3", publishes, frames)
	}
	if got := sub.col.last().Version; got != last {
		t.Fatalf("final frame carries version %d, want latest %d", got, last)
	}
	seen := 0
	sub.col.mu.Lock()
	for _, u := range sub.col.updates {
		seen += u.Coalesced
	}
	sub.col.mu.Unlock()
	if seen != publishes {
		t.Fatalf("frames account for %d publishes, want %d", seen, publishes)
	}
	if lease.Deliveries() != frames {
		t.Fatalf("lease accounted %d deliveries for %d frames", lease.Deliveries(), frames)
	}
	if lease.CoalescedUpdates() != int64(publishes-frames) {
		t.Fatalf("lease coalesced %d updates, want %d", lease.CoalescedUpdates(), publishes-frames)
	}
}

// Async expiry: a lease that lapses while queued is pruned by the worker
// without a delivery.
func TestAsyncExpiredLeaseDroppedAtDelivery(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	clock := newFakeClock()
	m := NewManagerWith(hs, clock.Now, Config{Workers: 1})
	defer m.Close()
	gate := newBlockingSubscriber()
	if _, err := m.Subscribe("o1", "gate", PushNotify, time.Hour, gate); err != nil {
		t.Fatal(err)
	}
	doomed := &collector{}
	if _, err := m.Subscribe("o1", "doomed", PushNotify, time.Minute, doomed); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish("o1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // worker stuck on the gate lease; doomed still queued
	clock.Advance(2 * time.Minute)
	close(gate.release)
	m.Flush()
	if doomed.count() != 0 {
		t.Fatal("expired lease received a delivery")
	}
	if m.registered("o1") != 1 {
		t.Fatalf("registry holds %d leases, want only the unexpired one", m.registered("o1"))
	}
}

// Async panic isolation: a panicking subscriber costs its own frame only;
// the worker survives and keeps serving other leases.
func TestAsyncPanicDoesNotKillWorker(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 1})
	defer m.Close()
	bad := &panicSubscriber{}
	if _, err := m.Subscribe("o1", "bad", PushValue, time.Hour, bad); err != nil {
		t.Fatal(err)
	}
	good := &collector{}
	if _, err := m.Subscribe("o1", "good", PushValue, time.Hour, good); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Publish("o1", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	if good.count() != 3 {
		t.Fatalf("healthy subscriber got %d frames, want 3 — the panic killed the worker", good.count())
	}
	if bad.calls.Load() == 0 {
		t.Fatal("panicking subscriber never attempted")
	}
}

func TestLeaseByID(t *testing.T) {
	_, m, _ := setup()
	l, err := m.Subscribe("o1", "c1", PushDelta, time.Minute, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := m.LeaseByID(l.ID); !ok || got != l {
		t.Fatal("LeaseByID lost the lease")
	}
	if _, ok := m.LeaseByID("no-such-id"); ok {
		t.Fatal("LeaseByID resolved an unknown id")
	}
	m.Cancel(l)
	if _, ok := m.LeaseByID(l.ID); ok {
		t.Fatal("cancelled lease still resolvable by id")
	}
}

func TestOnReleaseFiresOncePerLease(t *testing.T) {
	_, m, clock := setup()
	var mu sync.Mutex
	released := map[string]int{}
	m.OnRelease = func(l *Lease) {
		mu.Lock()
		released[l.ID]++
		mu.Unlock()
	}
	a, _ := m.Subscribe("k", "a", PushNotify, time.Minute, &collector{})
	b, _ := m.Subscribe("k", "b", PushNotify, time.Minute, &collector{})
	m.Cancel(a)
	m.Cancel(a) // double cancel must not double-fire
	clock.Advance(2 * time.Minute)
	m.Sweep()
	mu.Lock()
	defer mu.Unlock()
	if released[a.ID] != 1 || released[b.ID] != 1 {
		t.Fatalf("release counts %v, want exactly 1 each", released)
	}
}

// Lease churn under the race detector: 16 goroutines subscribing,
// renewing, cancelling, and publishing against one async manager with a
// virtual clock, then a sweep that must leave the registry consistent.
func TestLeaseChurnStressRace(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	clock := newFakeClock()
	m := NewManagerWith(hs, clock.Now, Config{Workers: 8})
	defer m.Close()

	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var mine []*Lease
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(4))
				switch rng.Intn(5) {
				case 0, 1:
					mode := []PushMode{PushValue, PushDelta, PushNotify}[rng.Intn(3)]
					l, err := m.Subscribe(key, fmt.Sprintf("g%d", g), mode, time.Minute, &collector{})
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, l)
				case 2:
					if len(mine) > 0 {
						_ = m.Renew(mine[rng.Intn(len(mine))], time.Minute)
					}
				case 3:
					if len(mine) > 0 {
						j := rng.Intn(len(mine))
						m.Cancel(mine[j])
						mine = append(mine[:j], mine[j+1:]...)
					}
				case 4:
					if _, err := m.Publish(key, []byte(fmt.Sprintf("g%d-i%d", g, i))); err != nil {
						t.Error(err)
						return
					}
				}
				if i%50 == 0 {
					clock.Advance(time.Second)
				}
			}
			for _, l := range mine {
				m.Cancel(l)
			}
		}(g)
	}
	wg.Wait()
	m.Flush()
	assertHotKeyScanHoldsNoRegistryLock(t, m)
	clock.Advance(2 * time.Minute)
	m.Sweep()
	if st := m.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("after cancel-all + sweep, %d leases remain registered", st.ActiveLeases)
	}
	for k := 0; k < 4; k++ {
		if n := m.registered(fmt.Sprintf("k%d", k)); n != 0 {
			t.Fatalf("key k%d still holds %d leases", k, n)
		}
	}
}

// assertHotKeyScanHoldsNoRegistryLock parks a publish storm in the middle
// of a 10k-lease key's expiry scan — by holding one of its leases' locks —
// and requires every registry operation on a cold key to complete while the
// storm is parked. The bound is structural, not a wall-clock threshold: a
// Publish that scanned under the registry lock would hold it until the
// lease lock is released, which happens only after the cold-key calls
// return. (The timeout below only turns that deadlock into a failure.) The
// watchers' leases are left to lapse with the caller's next clock advance.
func assertHotKeyScanHoldsNoRegistryLock(t *testing.T, m *Manager) {
	t.Helper()
	const hot, watchers, publishers = "hot", 10_000, 4
	var parked *Lease
	for i := 0; i < watchers; i++ {
		l, err := m.Subscribe(hot, "watcher", PushNotify, 30*time.Second, &collector{})
		if err != nil {
			t.Fatal(err)
		}
		if i == watchers/2 {
			parked = l
		}
	}
	parked.mu.Lock()
	var storm sync.WaitGroup
	for p := 0; p < publishers; p++ {
		storm.Add(1)
		go func(p int) {
			defer storm.Done()
			if _, err := m.Publish(hot, []byte(fmt.Sprintf("storm-%d", p))); err != nil {
				t.Error(err)
			}
		}(p)
	}
	// Every publisher has committed its write, so each is in (or about to
	// enter) the scan that stops at the parked lease.
	waitFor(t, "the storm's store writes", func() bool {
		v, err := m.store.Current(hot)
		return err == nil && v.Num == publishers
	})
	cold := make(chan error, 1)
	go func() {
		l, err := m.Subscribe("cold", "bystander", PushNotify, time.Minute, &collector{})
		if err == nil {
			if _, ok := m.LeaseByID(l.ID); !ok {
				err = fmt.Errorf("cold-key lease not resolvable by id")
			}
		}
		if err == nil {
			m.Cancel(l)
		}
		cold <- err
	}()
	select {
	case err := <-cold:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(5 * time.Second):
		t.Error("Subscribe/LeaseByID/Cancel on a cold key waited behind a hot key's publish scan")
	}
	parked.mu.Unlock()
	storm.Wait()
	m.Flush()
}

func TestMonitorObserveUpdate(t *testing.T) {
	mon := NewMonitor(CountTrigger{N: 10})
	mon.ObserveUpdate(Update{Notify: true, Coalesced: 7, ChangedBytes: 128})
	mon.ObserveUpdate(Update{Notify: true}) // Coalesced 0 counts as 1
	s := mon.Stats()
	if s.Count != 8 || s.Bytes != 128 {
		t.Fatalf("stats %+v, want Count=8 Bytes=128", s)
	}
	if mon.Check() {
		t.Fatal("trigger fired early")
	}
	mon.ObserveUpdate(Update{Notify: true, Coalesced: 3})
	if !mon.Check() {
		t.Fatal("trigger should fire at 11 > 10 updates")
	}
}

// Workers book their deliveries into a private tally and post it when their
// pass ends, so the shared counters lag a pass that is stuck — but the queue
// depth never under-counts (every lease of the job is still in the pipeline
// while one Deliver blocks), and by the time Flush returns everything a pass
// delivered has been posted: pushes, bytes, latency observations, and a
// depth of zero.
func TestTallyPostedBeforeFlushReturns(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 1})
	defer m.Close()
	slow := newBlockingSubscriber()
	if _, err := m.Subscribe("k", "slow", PushNotify, time.Hour, slow); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Subscribe("k", fmt.Sprintf("c%d", i), PushValue, time.Hour, &collector{}); err != nil {
			t.Fatal(err)
		}
	}
	pushes := func() int64 { return mPushes[PushValue].Value() + mPushes[PushNotify].Value() }
	pushes0, bytes0, lat0 := pushes(), mPushBytes.Value(), mFanoutSeconds.Count()
	if _, err := m.Publish("k", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	<-slow.entered
	if got := m.Stats().QueueDepth; got != 5 {
		t.Fatalf("queue depth %d with one delivery stuck and four behind it, want 5", got)
	}
	close(slow.release)
	m.Flush()
	if got := m.Stats().QueueDepth; got != 0 {
		t.Fatalf("queue depth %d after Flush, want 0", got)
	}
	if got := pushes() - pushes0; got != 5 {
		t.Fatalf("pushes_total moved by %d over 5 deliveries", got)
	}
	if got, want := mPushBytes.Value()-bytes0, int64(notifyWireBytes+4*len("payload")); got != want {
		t.Fatalf("push_bytes_total moved by %d, want %d", got, want)
	}
	if got := mFanoutSeconds.Count() - lat0; got != 5 {
		t.Fatalf("fanout_seconds gained %d observations over 5 deliveries", got)
	}
}
