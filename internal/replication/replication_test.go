package replication

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"coda/internal/store"
)

// fakeClock is an injectable virtual clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// collector records delivered updates.
type collector struct {
	mu      sync.Mutex
	updates []Update
}

func (c *collector) Deliver(u Update) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates = append(c.updates, u)
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.updates)
}

func (c *collector) last() Update {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.updates[len(c.updates)-1]
}

func setup(t *testing.T) (store.ObjectStore, *Manager, *fakeClock) {
	hs := store.NewHomeStore(store.Options{BlockSize: 32})
	clock := newFakeClock()
	m := NewManager(hs, clock.Now)
	t.Cleanup(m.Close)
	return hs, m, clock
}

func TestPushValueDeliversFullObject(t *testing.T) {
	_, m, _ := setup(t)
	col := &collector{}
	if _, err := m.Subscribe("o1", "c1", PushValue, time.Minute, col); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish("o1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if col.count() != 1 {
		t.Fatalf("deliveries %d", col.count())
	}
	u := col.last()
	if u.Notify || u.Reply == nil || string(u.Reply.Full) != "hello" {
		t.Fatalf("update %+v", u)
	}
}

func TestPushDeltaUsesAckVersion(t *testing.T) {
	_, m, _ := setup(t)
	col := &collector{}
	lease, err := m.Subscribe("o1", "c1", PushDelta, time.Minute, col)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte("abcdefgh"), 512)
	v1, err := m.Publish("o1", base)
	if err != nil {
		t.Fatal(err)
	}
	m.Flush()
	// First update: subscriber had nothing, gets the full value.
	if col.last().Reply.IsDelta() {
		t.Fatal("first push should be full")
	}
	lease.AckVersion(v1)

	// Small edit: now the push should be a delta.
	v2 := append([]byte(nil), base...)
	v2[10] ^= 0xff
	if _, err := m.Publish("o1", v2); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	u := col.last()
	if !u.Reply.IsDelta() {
		t.Fatal("second push should be a delta against the acked version")
	}
	if u.Reply.BaseVersion != v1 {
		t.Fatalf("delta base %d, want %d", u.Reply.BaseVersion, v1)
	}
	if lease.BytesPushed() >= int64(2*len(base)) {
		t.Fatalf("delta mode pushed %d bytes for two updates of %d-byte object", lease.BytesPushed(), len(base))
	}
}

func TestPushNotifyCarriesNoPayload(t *testing.T) {
	_, m, _ := setup(t)
	col := &collector{}
	lease, err := m.Subscribe("o1", "c1", PushNotify, time.Minute, col)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("sensor"), 4096)
	v1, err := m.Publish("o1", big)
	if err != nil {
		t.Fatal(err)
	}
	m.Flush()
	lease.AckVersion(v1)
	big2 := append([]byte(nil), big...)
	big2[0] ^= 1
	if _, err := m.Publish("o1", big2); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	u := col.last()
	if !u.Notify || u.Reply != nil {
		t.Fatalf("notify update %+v", u)
	}
	if u.ChangedBytes <= 0 {
		t.Fatal("notification should estimate change magnitude")
	}
	if u.WireBytes() > 64 {
		t.Fatalf("notification costs %d bytes", u.WireBytes())
	}
	if u.Version != v1+1 {
		t.Fatalf("notified version %d", u.Version)
	}
	// A rewrite no delta beats is estimated at the full value's size, so a
	// bytes trigger fed by notifications still sees it.
	lease.AckVersion(u.Version)
	if _, err := m.Publish("o1", []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if u := col.last(); u.ChangedBytes != len("rewritten") {
		t.Fatalf("a rewrite estimated at %d changed bytes, want its full size %d", u.ChangedBytes, len("rewritten"))
	}
}

func TestLeaseExpiryStopsDeliveries(t *testing.T) {
	_, m, clock := setup(t)
	col := &collector{}
	if _, err := m.Subscribe("o1", "c1", PushValue, time.Minute, col); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Publish("o1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	clock.Advance(2 * time.Minute)
	if _, err := m.Publish("o1", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if col.count() != 1 {
		t.Fatalf("expired lease received %d deliveries", col.count())
	}
	if m.ActiveLeases("o1") != 0 {
		t.Fatal("expired lease still counted active")
	}
}

func TestLeaseRenewExtends(t *testing.T) {
	_, m, clock := setup(t)
	col := &collector{}
	lease, err := m.Subscribe("o1", "c1", PushValue, time.Minute, col)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(30 * time.Second)
	if err := m.Renew(lease, time.Minute); err != nil {
		t.Fatal(err)
	}
	clock.Advance(45 * time.Second) // beyond original expiry, within renewal
	if _, err := m.Publish("o1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if col.count() != 1 {
		t.Fatal("renewed lease missed a delivery")
	}
	// Renewal after expiry fails.
	clock.Advance(10 * time.Minute)
	if err := m.Renew(lease, time.Minute); !errors.Is(err, ErrLeaseExpired) {
		t.Fatalf("want ErrLeaseExpired, got %v", err)
	}
}

func TestLeaseCancel(t *testing.T) {
	_, m, _ := setup(t)
	col := &collector{}
	lease, err := m.Subscribe("o1", "c1", PushValue, time.Hour, col)
	if err != nil {
		t.Fatal(err)
	}
	m.Cancel(lease)
	if _, err := m.Publish("o1", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	if col.count() != 0 {
		t.Fatal("cancelled lease still receives updates")
	}
}

func TestSubscribeValidation(t *testing.T) {
	_, m, _ := setup(t)
	if _, err := m.Subscribe("o1", "c1", PushValue, 0, &collector{}); err == nil {
		t.Fatal("want ttl error")
	}
	if _, err := m.Subscribe("o1", "c1", PushValue, time.Minute, nil); err == nil {
		t.Fatal("want nil-subscriber error")
	}
	if _, err := m.Subscribe("o1", "c1", PushMode(99), time.Minute, &collector{}); err == nil {
		t.Fatal("want mode error")
	}
}

func TestMultipleSubscribersFanOut(t *testing.T) {
	_, m, _ := setup(t)
	cols := make([]*collector, 5)
	for i := range cols {
		cols[i] = &collector{}
		if _, err := m.Subscribe("o1", "c", PushValue, time.Minute, cols[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Publish("o1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	for i, c := range cols {
		if c.count() != 1 {
			t.Fatalf("subscriber %d got %d updates", i, c.count())
		}
	}
}

func TestTriggers(t *testing.T) {
	tests := []struct {
		name    string
		trigger Trigger
		updates []int // payload sizes
		want    bool
	}{
		{"count below", CountTrigger{N: 3}, []int{1, 1, 1}, false},
		{"count above", CountTrigger{N: 3}, []int{1, 1, 1, 1}, true},
		{"bytes below", BytesTrigger{N: 100}, []int{50, 50}, false},
		{"bytes above", BytesTrigger{N: 100}, []int{50, 51}, true},
		{"app specific", FuncTrigger{Fn: func(s UpdateStats) bool { return s.Count%2 == 1 }}, []int{1, 1, 1}, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mon := NewMonitor(tt.trigger)
			for _, sz := range tt.updates {
				mon.ObserveUpdate(Update{ChangedBytes: sz})
			}
			if got := mon.Check(); got != tt.want {
				t.Fatalf("Check() = %v, want %v (stats %+v)", got, tt.want, mon.stats)
			}
		})
	}
}

func TestMonitorResetCycle(t *testing.T) {
	mon := NewMonitor(CountTrigger{N: 2})
	for i := 0; i < 3; i++ {
		mon.ObserveUpdate(Update{ChangedBytes: 10})
	}
	if !mon.Check() {
		t.Fatal("trigger should fire")
	}
	mon.Reset()
	if mon.Check() {
		t.Fatal("reset should clear stats")
	}
	if mon.Recomputes() != 1 {
		t.Fatalf("recomputes %d", mon.Recomputes())
	}
}

func TestPushModesEndToEndBandwidthOrdering(t *testing.T) {
	// One object, many small updates: notify < delta < value in bytes.
	rng := rand.New(rand.NewSource(9))
	data := make([]byte, 8192)
	rng.Read(data)

	run := func(mode PushMode) int64 {
		_, m, _ := setup(t)
		col := &collector{}
		lease, err := m.Subscribe("o", "c", mode, time.Hour, col)
		if err != nil {
			t.Fatal(err)
		}
		cur := append([]byte(nil), data...)
		for step := 0; step < 10; step++ {
			cur = append([]byte(nil), cur...)
			cur[rng.Intn(len(cur))] ^= 0xff
			v, err := m.Publish("o", cur)
			if err != nil {
				t.Fatal(err)
			}
			m.Flush()
			lease.AckVersion(v)
		}
		return lease.BytesPushed()
	}
	value := run(PushValue)
	deltaBytes := run(PushDelta)
	notify := run(PushNotify)
	if !(notify < deltaBytes && deltaBytes < value) {
		t.Fatalf("bandwidth ordering violated: notify=%d delta=%d value=%d", notify, deltaBytes, value)
	}
}
