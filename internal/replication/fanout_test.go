package replication

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/obs"
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
// Publish reports only the store's error; the build failure is counted in
// push_errors_total and costs its own lease one frame, which is not booked.
func TestPublishContinuesPastFailingSubscriber(t *testing.T) {
	fs := &flakyStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 32})}
	m := NewManager(fs, newFakeClock().Now)
	t.Cleanup(m.Close)
	cols := make([]*collector, 3)
	leases := make([]*Lease, len(cols))
	for i := range cols {
		cols[i] = &collector{}
		l, err := m.Subscribe("o1", fmt.Sprintf("c%d", i), PushValue, time.Hour, cols[i])
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
	}
	before := mPushErrors.Value()
	fs.arm(1) // first lease's Get fails; the publish Put itself is clean
	v, err := m.Publish("o1", []byte("payload"))
	if err != nil || v != 1 {
		t.Fatalf("Publish = %d, %v; want version 1 and no error (the store write committed)", v, err)
	}
	m.Flush()
	delivered, booked := 0, 0
	for i, c := range cols {
		delivered += c.count()
		booked += leases[i].Deliveries()
	}
	if delivered != 2 || booked != 2 {
		t.Fatalf("delivered %d frames and booked %d of 3 leases, want 2 and 2: the failure must only cost its own lease", delivered, booked)
	}
	if got := mPushErrors.Value() - before; got != 1 {
		t.Fatalf("coda_replication_push_errors_total moved by %d, want 1", got)
	}
	// The failed lease keeps its slot and catches the next publish.
	if _, err := m.Publish("o1", []byte("payload2")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	total := 0
	for _, c := range cols {
		total += c.count()
	}
	if total != 5 {
		t.Fatalf("after recovery publish, %d total deliveries, want 5", total)
	}
}

// Regression (PR 8): failures on several leases of one publish are each
// accounted for, and every healthy lease still delivers. The per-lease
// errors used to come back joined from Publish; now Publish returns only
// the store's error, and each failure moves push_errors_total once and
// leaves its lease unbooked.
func TestPublishJoinsAllFanoutErrors(t *testing.T) {
	fs := &flakyStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 32})}
	m := NewManager(fs, newFakeClock().Now)
	t.Cleanup(m.Close)
	badA, err := m.Subscribe("o1", "bad-a", PushValue, time.Hour, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	badB, err := m.Subscribe("o1", "bad-b", PushValue, time.Hour, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	ok := &collector{}
	good, err := m.Subscribe("o1", "good", PushValue, time.Hour, ok)
	if err != nil {
		t.Fatal(err)
	}
	before := mPushErrors.Value()
	fs.arm(2)
	if _, err := m.Publish("o1", []byte("x")); err != nil {
		t.Fatalf("Publish returned %v; lease failures are not the publisher's error", err)
	}
	m.Flush()
	if got := mPushErrors.Value() - before; got != 2 {
		t.Fatalf("coda_replication_push_errors_total moved by %d, want 2", got)
	}
	if badA.Deliveries() != 0 || badB.Deliveries() != 0 {
		t.Fatalf("failed leases booked %d and %d deliveries, want 0 and 0", badA.Deliveries(), badB.Deliveries())
	}
	if ok.count() != 1 || good.Deliveries() != 1 {
		t.Fatalf("healthy subscriber got %d deliveries (%d booked), want 1", ok.count(), good.Deliveries())
	}
}

// Regression (PR 8): Cancel used to only flip a flag, leaking the lease in
// m.leases until the next Publish of that key — keys that stop publishing
// leaked every lease ever registered. Cancel must prune immediately.
func TestCancelFreesLeaseWithoutPublish(t *testing.T) {
	_, m, _ := setup(t)
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
	_, m, clock := setup(t)
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
// the panic must be contained to the one lease: counted as a push error
// and a panic, never returned to the publisher.
func TestPanicInDeliverIsolatedAndNotCounted(t *testing.T) {
	_, m, _ := setup(t)
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
	panics, errs := mPushPanics.Value(), mPushErrors.Value()
	if _, err := m.Publish("o1", []byte("v1")); err != nil {
		t.Fatalf("Publish returned %v; a subscriber's panic is not the publisher's error", err)
	}
	m.Flush()
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
	if got := mPushPanics.Value() - panics; got != 1 {
		t.Fatalf("panic counter moved by %d, want 1", got)
	}
	if got := mPushErrors.Value() - errs; got != 1 {
		t.Fatalf("push error counter moved by %d, want 1", got)
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
	if lease.coalescedUpdates() != int64(publishes-frames) {
		t.Fatalf("lease coalesced %d updates, want %d", lease.coalescedUpdates(), publishes-frames)
	}
}

// A coalescing window spaces each lease's deliveries: a burst of publishes
// inside it costs a lease a few frames, not one per publish, the frames
// account for every publish, no lease's frames go backwards (a notify
// lease's rise; a value frame reads the store's latest, so two may repeat
// it), and every lease — notify or value — ends on the latest version, a
// value lease holding its bytes.
func TestCoalesceWindowConvergesEveryLease(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := NewManagerWith(hs, nil, Config{Workers: 4, CoalesceWindow: 40 * time.Millisecond})
	defer m.Close()
	const leases, publishes = 50, 20
	cols := make([]*collector, leases)
	ls := make([]*Lease, leases)
	for i := range cols {
		mode := PushNotify
		if i%2 == 1 {
			mode = PushValue
		}
		cols[i] = &collector{}
		l, err := m.Subscribe("hot", fmt.Sprint("c", i), mode, time.Hour, cols[i])
		if err != nil {
			t.Fatal(err)
		}
		ls[i] = l
	}
	var last uint64
	var payload []byte
	for i := 0; i < publishes; i++ {
		payload = []byte(fmt.Sprintf("version %d", i))
		v, err := m.Publish("hot", payload)
		if err != nil {
			t.Fatal(err)
		}
		last = v
	}
	m.Flush()
	frames := 0
	for i, c := range cols {
		c.mu.Lock()
		updates := slices.Clone(c.updates)
		c.mu.Unlock()
		seen := 0
		for j, u := range updates {
			if j > 0 && (u.Version < updates[j-1].Version || u.Version == updates[j-1].Version && u.Notify) {
				t.Fatalf("lease %d: frame %d carries version %d after version %d", i, j, u.Version, updates[j-1].Version)
			}
			seen += u.Coalesced
		}
		frames += len(updates)
		if seen != publishes {
			t.Fatalf("lease %d: frames account for %d publishes, want %d", i, seen, publishes)
		}
		if ls[i].Deliveries() != len(updates) || ls[i].Deliveries()+int(ls[i].coalescedUpdates()) != publishes {
			t.Fatalf("lease %d: %d frames, books %d deliveries + %d coalesced, want %d publishes",
				i, len(updates), ls[i].Deliveries(), ls[i].coalescedUpdates(), publishes)
		}
		u := updates[len(updates)-1]
		if u.Version != last {
			t.Fatalf("lease %d stopped at version %d, want %d", i, u.Version, last)
		}
		if i%2 == 1 && (u.Reply == nil || !bytes.Equal(u.Reply.Full, payload)) {
			t.Fatalf("value lease %d ended on %+v, want the latest bytes", i, u.Reply)
		}
	}
	if perLease := float64(frames) / leases; perLease > 10 {
		t.Fatalf("%.1f frames per lease for %d publishes: the window did not coalesce", perLease, publishes)
	}
}

// Expiry at delivery: a lease that lapses while queued is pruned by the worker
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

// Panic isolation: a panicking subscriber costs its own frame only;
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
	_, m, _ := setup(t)
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
	_, m, clock := setup(t)
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
// renewing, cancelling, and publishing against one manager with a
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
	s := mon.stats
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

// A stalled Deliver holds one worker and one lease, never the rest of its
// share: the free workers deliver every other lease of the job, stealing
// what a stalled worker's share still holds from its back. A share whose
// first lease stalls is the worst case, since all the rest of it must be
// stolen. Two workers cannot both stall and still deliver, so the two-worker
// cases stall each share's first lease in turn and the three-worker case
// stalls two shares' first leases at once. One worker on one share delivers
// in subscription order. Once the stalls are released, the queue depth and
// the posted tallies are exact.
func TestStalledDeliverHoldsOneLease(t *testing.T) {
	for _, tc := range []struct {
		name            string
		workers, leases int
		stall           []int // leases whose Deliver blocks until released
	}{
		{"workers=2/share=0", 2, 64, []int{0}},
		{"workers=2/share=1", 2, 64, []int{32}},
		{"workers=3/shares=0,1", 3, 64, []int{0, 21}},
		{"workers>leases", 8, 5, []int{0, 2}},
		{"workers=1", 1, 64, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hs := store.NewHomeStore(store.Options{BlockSize: 32})
			m := NewManagerWith(hs, nil, Config{Workers: tc.workers})
			defer m.Close()
			release := make(chan struct{})
			var releaseOnce sync.Once
			unstall := func() { releaseOnce.Do(func() { close(release) }) }
			defer unstall() // before Close, which waits for the stalled workers
			entered := make(chan int, len(tc.stall))
			var mu sync.Mutex
			var order []int
			leases := make([]*Lease, tc.leases)
			for i := range leases {
				stalls := slices.Contains(tc.stall, i)
				l, err := m.Subscribe("k", fmt.Sprint("c", i), PushValue, time.Hour, SubscriberFunc(func(Update) {
					if stalls {
						entered <- i
						<-release
					}
					mu.Lock()
					order = append(order, i)
					mu.Unlock()
				}))
				if err != nil {
					t.Fatal(err)
				}
				leases[i] = l
			}
			delivered := func() int {
				mu.Lock()
				defer mu.Unlock()
				return len(order)
			}
			pushes0, bytes0, lat0 := mPushes[PushValue].Value(), mPushBytes.Value(), mFanoutSeconds.Count()
			if _, err := m.Publish("k", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			for range tc.stall {
				select {
				case <-entered:
				case <-time.After(5 * time.Second):
					t.Fatal("timed out waiting for the stalled deliveries to start")
				}
			}
			free := tc.leases - len(tc.stall)
			waitFor(t, "every lease but the stalled ones", func() bool { return delivered() == free })
			for _, i := range tc.stall {
				if leases[i].Deliveries() != 0 {
					t.Fatalf("stalled lease %d booked a delivery before its Deliver returned", i)
				}
			}
			unstall()
			m.Flush()
			if got := m.Stats().QueueDepth; got != 0 {
				t.Fatalf("queue depth %d after Flush, want 0", got)
			}
			for i, l := range leases {
				if l.Deliveries() != 1 {
					t.Fatalf("lease %d booked %d deliveries, want 1", i, l.Deliveries())
				}
			}
			n := int64(tc.leases)
			if got := mPushes[PushValue].Value() - pushes0; got != n {
				t.Fatalf("pushes_total moved by %d over %d deliveries", got, n)
			}
			if got, want := mPushBytes.Value()-bytes0, n*int64(len("payload")); got != want {
				t.Fatalf("push_bytes_total moved by %d, want %d", got, want)
			}
			if got := mFanoutSeconds.Count() - lat0; got != uint64(n) {
				t.Fatalf("fanout_seconds gained %d observations over %d deliveries", got, n)
			}
			if tc.workers == 1 {
				for i, got := range order {
					if got != i {
						t.Fatalf("one worker delivered lease %d %dth, want subscription order", got, i)
					}
				}
			}
		})
	}
}

// BenchmarkFanout1000 is the push-fanout workload's replication leg on its
// own: 1000 PushDelta leases that acknowledge every frame, so each round is
// one delta group, on a pool of GOMAXPROCS workers and on one worker. An op
// publishes an edit of a 32 KiB object (four runs of 1%) and waits for the
// round. It reports ns/delivery and fails if any lease ends short of the
// latest version, so a run of one iteration still checks delivery.
func BenchmarkFanout1000(b *testing.B) {
	for _, workers := range slices.Compact([]int{runtime.GOMAXPROCS(0), 1}) {
		b.Run(fmt.Sprint("workers=", workers), func(b *testing.B) {
			const n = 1000
			m := NewManagerWith(store.NewHomeStore(store.Options{Retain: 4, BlockSize: 64, FullFraction: 0.5}), nil, Config{Workers: workers})
			defer m.Close()
			rng := rand.New(rand.NewSource(1))
			data := make([]byte, 32<<10)
			rng.Read(data)
			if _, err := m.Publish("hot", data); err != nil {
				b.Fatal(err)
			}
			leases := make([]*Lease, n)
			got := make([]atomic.Uint64, n)
			for i := range leases {
				l, err := m.Subscribe("hot", fmt.Sprint("c", i), PushDelta, time.Hour, SubscriberFunc(func(u Update) {
					got[i].Store(u.Version)
					leases[i].AckVersion(u.Version)
				}))
				if err != nil {
					b.Fatal(err)
				}
				leases[i] = l
				l.AckVersion(1)
			}
			var last uint64
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				data = bytes.Clone(data) // the store keeps what it is handed
				for range 4 {
					off := rng.Intn(len(data) - len(data)/400)
					rng.Read(data[off : off+len(data)/400])
				}
				v, err := m.Publish("hot", data)
				if err != nil {
					b.Fatal(err)
				}
				m.Flush()
				last = v
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/delivery")
			for i := range got {
				if v := got[i].Load(); v != last {
					b.Fatalf("lease %d ended on version %d, want the latest %d", i, v, last)
				}
			}
		})
	}
}

// gatedStore holds its first Put after the write commits, until released:
// the lever for landing one publish's merge after a later publish's frame.
type gatedStore struct {
	store.ObjectStore
	puts      atomic.Int64
	committed chan struct{}
	release   chan struct{}
}

func (g *gatedStore) Put(key string, data []byte) (uint64, error) {
	v, err := g.ObjectStore.Put(key, data)
	if g.puts.Add(1) == 1 {
		close(g.committed)
		<-g.release
	}
	return v, err
}

// A lease's frames never go backwards (ROADMAP 10b: coalescing may skip,
// never reorder). Publish merges into each lease's slot after its store
// write returns, so when two publishes race, the first one's merge can land
// after the second one's frame went out. That slot is behind the lease: a
// notify lease would be told version 1 after version 2, a value lease would
// get version 2 twice. It is dropped and its publish counts as coalesced,
// once, and rides on the lease's next frame: the frames' publish counts
// add up to the publishes, which a count trigger fed by them relies on.
func TestLeaseFramesNeverGoBackwards(t *testing.T) {
	for _, mode := range []PushMode{PushNotify, PushValue} {
		t.Run(mode.String(), func(t *testing.T) {
			gs := &gatedStore{ObjectStore: store.NewHomeStore(store.Options{BlockSize: 32}),
				committed: make(chan struct{}), release: make(chan struct{})}
			m := NewManager(gs, nil)
			t.Cleanup(m.Close)
			col := &collector{}
			lease, err := m.Subscribe("k", "c", mode, time.Hour, col)
			if err != nil {
				t.Fatal(err)
			}
			coalesced := mCoalesced.Value()
			first := make(chan error, 1)
			go func() {
				_, err := m.Publish("k", []byte("one"))
				first <- err
			}()
			<-gs.committed // version 1 is written; its merge has not happened yet
			if _, err := m.Publish("k", []byte("two")); err != nil {
				t.Fatal(err)
			}
			m.Flush()
			close(gs.release)
			if err := <-first; err != nil {
				t.Fatal(err)
			}
			m.Flush()
			var versions []uint64
			col.mu.Lock()
			for _, u := range col.updates {
				versions = append(versions, u.Version)
			}
			col.mu.Unlock()
			if !slices.Equal(versions, []uint64{2}) {
				t.Fatalf("lease received versions %v, want [2]", versions)
			}
			if lease.Deliveries() != 1 || lease.coalescedUpdates() != 1 {
				t.Fatalf("lease booked %d deliveries and %d coalesced publishes, want 1 and 1",
					lease.Deliveries(), lease.coalescedUpdates())
			}
			if got := mCoalesced.Value() - coalesced; got != 1 {
				t.Fatalf("coda_replication_coalesced_updates_total moved by %d, want 1", got)
			}

			if _, err := m.Publish("k", []byte("three")); err != nil {
				t.Fatal(err)
			}
			m.Flush()
			versions, sum := nil, 0
			col.mu.Lock()
			for _, u := range col.updates {
				versions = append(versions, u.Version)
				sum += u.Coalesced
			}
			col.mu.Unlock()
			if !slices.Equal(versions, []uint64{2, 3}) || sum != 3 {
				t.Fatalf("after a third publish the lease received versions %v counting %d publishes, want [2 3] counting 3",
					versions, sum)
			}
			if lease.Deliveries() != 2 || lease.coalescedUpdates() != 1 || mCoalesced.Value()-coalesced != 1 {
				t.Fatalf("after a third publish: %d deliveries, %d coalesced on the lease, %d in the series; want 2, 1, 1",
					lease.Deliveries(), lease.coalescedUpdates(), mCoalesced.Value()-coalesced)
			}
		})
	}
}

// A notify frame is reused only at its own version. Handed a newer build of
// its group, a lease would run ahead of its slot, and its next frame — for a
// publish that raced in between — would carry an older version.
func TestNotifyFrameNeverRunsAhead(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManager(hs, nil)
	t.Cleanup(m.Close)
	for _, v := range []string{"a", "b", "c"} {
		if _, err := hs.Put("k", []byte(v)); err != nil {
			t.Fatal(err)
		}
	}
	j := &fanoutJob{}
	for _, mode := range []PushMode{PushNotify, PushValue} {
		k := frameKey{mode: mode}
		if _, err := m.frame(j, "k", k, 3); err != nil {
			t.Fatal(err)
		}
		u, err := m.frame(j, "k", k, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := uint64(2) // notify: the slot's own version
		if mode == PushValue {
			want = 3 // value: the store's latest, shared from the memo
		}
		if u.Version != want {
			t.Fatalf("%s frame for slot version 2 after a version-3 build carries %d, want %d", mode, u.Version, want)
		}
	}
}

// coalescedUpdates is how many publishes beyond one-per-frame were merged
// into l's delivered frames, or reached l after a later publish's frame
// and were dropped.
func (l *Lease) coalescedUpdates() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.coalesced
}

// The writer takes no lease's lock: Publish writes the store, copies the
// key's lease list and hands the pool one job. With every lease's lock held
// it still returns; the workers deliver once the locks are free.
func TestPublishTakesNoLeaseLock(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 2})
	t.Cleanup(m.Close)
	cols := make([]*collector, 8)
	leases := make([]*Lease, len(cols))
	for i := range cols {
		cols[i] = &collector{}
		l, err := m.Subscribe("k", fmt.Sprint("c", i), PushValue, time.Hour, cols[i])
		if err != nil {
			t.Fatal(err)
		}
		leases[i] = l
	}
	for _, l := range leases {
		l.mu.Lock()
	}
	var unlockOnce sync.Once
	unlock := func() {
		unlockOnce.Do(func() {
			for _, l := range leases {
				l.mu.Unlock()
			}
		})
	}
	defer unlock() // before Close, which waits for the workers parked on them
	done := make(chan error, 1)
	go func() {
		_, err := m.Publish("k", []byte("v1"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Publish waited on a lease's lock")
	}
	unlock()
	m.Flush()
	for i, c := range cols {
		if c.count() != 1 {
			t.Fatalf("lease %d got %d frames, want 1", i, c.count())
		}
	}
}

// coalescedSum adds up the publish counts of the frames c received.
func coalescedSum(c *collector) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, u := range c.updates {
		n += u.Coalesced
	}
	return n
}

// A publish folds into its key's queued job only while the key's lease list
// is the one that job copied. A lease that subscribes mid-burst is credited
// with exactly the publishes made after it subscribed, and a lease there from
// the start with all of them: first with both workers parked, so each half
// of the burst folds into one job, then with the workers free to race it.
func TestMidBurstSubscribeCoalescesOnlyItsPublishes(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 2})
	defer m.Close()
	const publishes = 40
	for _, gated := range []bool{true, false} {
		key := fmt.Sprint("hot-gated=", gated)
		gate := newBlockingSubscriber()
		if gated {
			for i := range 2 {
				if _, err := m.Subscribe("gate", fmt.Sprint("gate", i), PushNotify, time.Hour, gate); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.Publish("gate", []byte("hold")); err != nil {
				t.Fatal(err)
			}
			<-gate.entered // both workers are parked in a gate delivery
			<-gate.entered
		}
		early, late := &collector{}, &collector{}
		if _, err := m.Subscribe(key, "early", PushNotify, time.Hour, early); err != nil {
			t.Fatal(err)
		}
		for i := range publishes {
			if i == publishes/2 {
				if _, err := m.Subscribe(key, "late", PushNotify, time.Hour, late); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := m.Publish(key, []byte(fmt.Sprint("v", i))); err != nil {
				t.Fatal(err)
			}
		}
		if gated {
			m.qmu.Lock()
			queued := len(m.jobs) - 1 // the gate's job is still the head
			m.qmu.Unlock()
			if queued != 2 {
				t.Errorf("the burst queued %d jobs behind the gate, want 2: one per lease list", queued)
			}
			close(gate.release)
		}
		m.Flush()
		if got := coalescedSum(early); got != publishes {
			t.Errorf("gated=%v: the early lease's frames count %d publishes, want %d", gated, got, publishes)
		}
		if got := coalescedSum(late); got != publishes-publishes/2 {
			t.Errorf("gated=%v: the lease subscribed mid-burst counts %d publishes, want the %d made after it subscribed",
				gated, got, publishes-publishes/2)
		}
		if gated && (early.count() != 2 || late.count() != 1) {
			t.Errorf("gated: %d and %d frames, want 2 and 1: each job's publishes are one frame", early.count(), late.count())
		}
	}
}

// A worker reads the wall clock once per run of deliveries and dates the
// run's frames by the reading that closes it, so a subscriber that stalls a
// run shows in fanout_seconds. The stalling lease is the last of 64: dated
// by the reading that opened its run, no frame would look older than a few
// microseconds.
func TestSlowDeliveryDatedByRunClose(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManagerWith(hs, nil, Config{Workers: 1})
	defer m.Close()
	const leases, stall = 64, 20 * time.Millisecond
	for i := range leases {
		var sub Subscriber = &collector{}
		if i == leases-1 {
			sub = SubscriberFunc(func(Update) { time.Sleep(stall) })
		}
		if _, err := m.Subscribe("k", fmt.Sprint("c", i), PushNotify, time.Hour, sub); err != nil {
			t.Fatal(err)
		}
	}
	slow0 := fanoutSecondsAbove(t, "0.01")
	if _, err := m.Publish("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if got := fanoutSecondsAbove(t, "0.01") - slow0; got < 1 {
		t.Fatalf("fanout_seconds gained %d observations above 0.01 s with a %v stall in the pass, want at least 1", got, stall)
	}
}

// fanoutSecondsAbove reads how many coda_replication_fanout_seconds
// observations lie above the bucket bound le, from the exposition.
func fanoutSecondsAbove(t *testing.T, le string) uint64 {
	t.Helper()
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	var below, count uint64
	var haveBelow, haveCount bool
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, `coda_replication_fanout_seconds_bucket{le="`+le+`"} `):
			_, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &below)
			haveBelow = err == nil
		case strings.HasPrefix(line, "coda_replication_fanout_seconds_count "):
			_, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &count)
			haveCount = err == nil
		}
	}
	if !haveBelow || !haveCount {
		t.Fatalf("no coda_replication_fanout_seconds bucket le=%q or count in the exposition", le)
	}
	return count - below
}

// coda_replication_leases_pruned_total counts leases, not prunes: a lease
// that a sweep releases while a fanout visit to it is still queued is
// counted once, and a cancelled lease is not an expired one.
func TestExpiredLeaseCountedOnce(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	clock := newFakeClock()
	m := NewManagerWith(hs, clock.Now, Config{Workers: 1})
	defer m.Close()
	gate := newBlockingSubscriber()
	if _, err := m.Subscribe("gate", "gate", PushNotify, time.Hour, gate); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish("gate", []byte("hold")); err != nil {
		t.Fatal(err)
	}
	<-gate.entered // the only worker is parked
	doomed := &collector{}
	if _, err := m.Subscribe("k", "doomed", PushNotify, time.Minute, doomed); err != nil {
		t.Fatal(err)
	}
	cancelled, err := m.Subscribe("k", "cancelled", PushNotify, time.Hour, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	pruned := mLeasesExpired.Value()
	if _, err := m.Publish("k", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	m.Cancel(cancelled)
	clock.Advance(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("swept %d leases, want the one expired lease", n)
	}
	close(gate.release)
	m.Flush()
	if got := mLeasesExpired.Value() - pruned; got != 1 {
		t.Fatalf("one expired lease (and one cancelled) counted %d times in coda_replication_leases_pruned_total, want 1", got)
	}
	if doomed.count() != 0 {
		t.Fatal("an expired lease received a delivery")
	}
}

// Two jobs of one key can reach a lease out of order: a worker may start the
// next job and visit a lease before the worker that claimed it in the
// previous job takes its lock. A visit merges the key's publishes up to its
// job's count that the lease has not yet taken in, so the later job's visit
// delivers both publishes as one frame and the earlier job's finds nothing
// left: no slot is dropped as behind, and the frames count every publish.
func TestJobsVisitLeaseInAnyOrder(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	m := NewManager(hs, nil)
	t.Cleanup(m.Close)
	col := &collector{}
	l, err := m.Subscribe("k", "c", PushNotify, time.Hour, col)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	first := &fanoutJob{key: "k", through: 1, version: 1, at: now}
	second := &fanoutJob{key: "k", through: 2, version: 2, at: now}
	tl := tally{now: now}
	m.visit(second, l, &tl)
	m.visit(first, l, &tl)
	if col.count() != 1 || col.last().Version != 2 || coalescedSum(col) != 2 {
		t.Fatalf("got %d frames ending on version %d counting %d publishes, want one frame of version 2 counting 2",
			col.count(), col.last().Version, coalescedSum(col))
	}
	if l.coalescedUpdates() != 1 || tl.coalesced != 1 {
		t.Fatalf("lease booked %d coalesced publishes and the tally %d, want 1 and 1", l.coalescedUpdates(), tl.coalesced)
	}
}
