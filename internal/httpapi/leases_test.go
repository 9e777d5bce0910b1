package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"coda/internal/darr"
	"coda/internal/replication"
	"coda/internal/store"
)

// newLeaseServer stands up a server with the async fanout enabled, plus
// a client pointed at it.
func newLeaseServer(t *testing.T, cfg replication.Config) (*Client, *replication.Manager, *Server, *httptest.Server) {
	t.Helper()
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManagerWith(hs, nil, cfg)
	t.Cleanup(m.Close)
	srv := NewServer(darr.NewRepo(nil, time.Minute), hs)
	srv.StreamHeartbeat = 50 * time.Millisecond
	srv.EnableLeases(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, "lease-client"), m, srv, ts
}

func TestLeaseSubscribeStreamPublish(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	info, err := c.Subscribe(ctx, "sensor", "value", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if info.LeaseID == "" || info.Mode != "value" || info.CurrentVersion != 0 {
		t.Fatalf("lease info %+v", info)
	}

	frames := make(chan Notification, 16)
	streamDone := make(chan error, 1)
	go func() {
		streamDone <- c.StreamLease(ctx, info.LeaseID, func(n Notification) error {
			frames <- n
			return nil
		})
	}()
	// Give the stream a moment to attach, then publish through the HTTP
	// tier — PUT must flow through the lease manager.
	time.Sleep(50 * time.Millisecond)
	if _, err := c.PutObject(ctx, "sensor", []byte("hello push tier")); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-frames:
		if n.Key != "sensor" || n.Version != 1 || n.Mode != "value" || n.Coalesced != 1 {
			t.Fatalf("frame %+v", n)
		}
		reply, err := n.Reply()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reply.Full, []byte("hello push tier")) {
			t.Fatalf("frame payload %q", reply.Full)
		}
	case <-ctx.Done():
		t.Fatal("no frame arrived over SSE")
	}

	// Cancelling the lease ends the stream with ErrLeaseGone.
	if err := c.CancelLease(ctx, info.LeaseID); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-streamDone:
		if !errors.Is(err, ErrLeaseGone) {
			t.Fatalf("stream ended with %v, want ErrLeaseGone", err)
		}
	case <-ctx.Done():
		t.Fatal("stream did not end after cancel")
	}
	if st := m.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("%d leases active after cancel", st.ActiveLeases)
	}
}

func TestLeaseFramesCoalesceWhileUnread(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	info, err := c.Subscribe(ctx, "hot", "notify", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Publish a burst with nobody reading the stream: the frames merge in
	// the lease's mailbox rather than queueing unboundedly.
	for i := 0; i < 5; i++ {
		if _, err := c.PutObject(ctx, "hot", []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	n, ok, err := c.PollLease(ctx, info.LeaseID, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	if n.Version != 5 || n.Coalesced != 5 {
		t.Fatalf("coalesced frame %+v, want version 5 covering 5 publishes", n)
	}
	// Nothing further pending: a short poll comes back empty.
	if _, ok, err := c.PollLease(ctx, info.LeaseID, 100*time.Millisecond); err != nil || ok {
		t.Fatalf("empty poll: ok=%v err=%v", ok, err)
	}
}

func TestLeaseDeltaModeRoundTrip(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	base := bytes.Repeat([]byte("abcdefgh"), 64)
	if _, err := c.PutObject(ctx, "doc", base); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	info, err := c.Subscribe(ctx, "doc", "delta", time.Minute, 1)
	if err != nil {
		t.Fatal(err)
	}
	if info.CurrentVersion != 1 {
		t.Fatalf("current version %d at subscribe, want 1", info.CurrentVersion)
	}
	next := append(append([]byte{}, base...), []byte("-tail")...)
	if _, err := c.PutObject(ctx, "doc", next); err != nil {
		t.Fatal(err)
	}
	m.Flush()
	n, ok, err := c.PollLease(ctx, info.LeaseID, 5*time.Second)
	if err != nil || !ok {
		t.Fatalf("poll: ok=%v err=%v", ok, err)
	}
	if n.Delta == "" || n.BaseVersion != 1 {
		t.Fatalf("frame %+v, want a delta against version 1", n)
	}
	rep := store.NewReplica()
	if err := rep.ApplyReply(&store.Reply{Key: "doc", Version: 1, Full: base}); err != nil {
		t.Fatal(err)
	}
	reply, err := n.Reply()
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.ApplyReply(reply); err != nil {
		t.Fatal(err)
	}
	if data, ok := rep.Data("doc"); !ok || !bytes.Equal(data, next) {
		t.Fatal("replica did not converge from the pushed delta")
	}
	// Ack the applied version; the next delta builds on it.
	if err := c.AckLease(ctx, info.LeaseID, n.Version); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseRenewExtendsAndExpiryEndsStream(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	info, err := c.Subscribe(ctx, "k", "notify", 150*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	renewed, err := c.RenewLease(ctx, info.LeaseID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if renewed.TTLSeconds != 60 {
		t.Fatalf("renewed ttl %v", renewed.TTLSeconds)
	}
	if err := c.CancelLease(ctx, info.LeaseID); err != nil {
		t.Fatal(err)
	}
	// Operations on the released lease answer 404/ErrLeaseGone.
	if _, err := c.RenewLease(ctx, info.LeaseID, time.Minute); err == nil {
		t.Fatal("renew after cancel should fail")
	}
	if err := c.StreamLease(ctx, info.LeaseID, func(Notification) error { return nil }); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("stream of released lease: %v, want ErrLeaseGone", err)
	}

	// Expiry (not just cancel) also releases server state via Sweep.
	short, err := c.Subscribe(ctx, "k", "notify", 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)
	m.Sweep()
	if _, ok := m.LeaseByID(short.LeaseID); ok {
		t.Fatal("expired lease still registered after sweep")
	}
	if _, _, err := c.PollLease(ctx, short.LeaseID, 100*time.Millisecond); err == nil {
		t.Fatal("poll of swept lease should fail")
	}
}

func TestLeaseBadRequests(t *testing.T) {
	c, _, _, ts := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := c.Subscribe(ctx, "", "notify", time.Minute, 0); err == nil {
		t.Fatal("subscribe without key should fail")
	}
	if _, err := c.Subscribe(ctx, "k", "telepathy", time.Minute, 0); err == nil {
		t.Fatal("subscribe with unknown mode should fail")
	}
	resp, err := http.Get(ts.URL + "/leases/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown lease status %d, want 404", resp.StatusCode)
	}
}

// A burst from many writers against many streaming subscribers: every
// stream stays isolated and the server leaks nothing once the leases are
// cancelled.
func TestLeaseManyStreamsConcurrentPublish(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 4})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const subscribers = 20
	var mu sync.Mutex
	got := map[string]uint64{}
	var wg sync.WaitGroup
	ids := make([]string, subscribers)
	for i := 0; i < subscribers; i++ {
		info, err := c.Subscribe(ctx, "hot", "notify", time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.LeaseID
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			_ = c.StreamLease(ctx, id, func(n Notification) error {
				mu.Lock()
				if n.Version > got[id] {
					got[id] = n.Version
				}
				mu.Unlock()
				return nil
			})
		}(info.LeaseID)
	}
	const publishes = 10
	for i := 1; i <= publishes; i++ {
		if _, err := c.PutObject(ctx, "hot", []byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	m.Flush()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		caughtUp := 0
		for _, id := range ids {
			if got[id] == publishes {
				caughtUp++
			}
		}
		mu.Unlock()
		if caughtUp == subscribers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d/%d subscribers saw version %d", caughtUp, subscribers, publishes)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range ids {
		if err := c.CancelLease(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if st := m.Stats(); st.ActiveLeases != 0 {
		t.Fatalf("%d leases active after cancelling all", st.ActiveLeases)
	}
}

// Regression (PR 16): the mailbox used to learn its lease id after
// Subscribe had already made the lease visible to Publish, so a PUT landing
// in between was a data race and a frame with an empty lease_id. Publish in
// a tight loop while leases are created over HTTP; every frame any of them
// receives must carry its own id. Run under -race.
func TestLeaseFramesCarryOwnIDUnderPublishRace(t *testing.T) {
	// A synchronous manager delivers on the publisher's goroutine, the
	// tightest interleaving with the handler that is creating the lease.
	c, m, _, _ := newLeaseServer(t, replication.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	stop := make(chan struct{})
	var publishers sync.WaitGroup
	for p := 0; p < 2; p++ {
		publishers.Add(1)
		go func(p int) {
			defer publishers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := m.Publish("hot", []byte(fmt.Sprintf("p%d-v%d", p, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(p)
	}
	modes := []string{"notify", "delta", "value"}
	for i := 0; i < 150; i++ {
		info, err := c.Subscribe(ctx, "hot", modes[i%3], time.Minute, 0)
		if err != nil {
			t.Fatal(err)
		}
		// With the publishers still running the lease has a frame coming —
		// most likely one delivered while the grant was still in flight.
		n, ok, err := c.PollLease(ctx, info.LeaseID, 5*time.Second)
		if err != nil || !ok {
			t.Fatalf("lease %d: poll ok=%v err=%v", i, ok, err)
		}
		if n.LeaseID != info.LeaseID {
			t.Fatalf("lease %d (%s) received a frame stamped %q", i, info.LeaseID, n.LeaseID)
		}
		if n.Mode != modes[i%3] || n.Key != "hot" || n.Version == 0 || n.Coalesced < 1 {
			t.Fatalf("lease %d: frame %+v", i, n)
		}
		if err := c.CancelLease(ctx, info.LeaseID); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	publishers.Wait()
}

// Deterministic cost ceiling (ROADMAP 7a): a frame that lands in 64
// mailboxes is serialized once — every mailbox holds a reference to the same
// bytes — and what each lease's handler writes is still its own complete
// Notification around them.
func TestFrameEncodedOncePerGroup(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManager(hs, nil)
	payload := bytes.Repeat([]byte("push-tier "), 400)
	boxes := make([]*leaseMailbox, 64)
	for i := range boxes {
		boxes[i] = newLeaseMailbox(replication.PushValue)
		if _, err := m.Subscribe("doc", fmt.Sprintf("c%d", i), replication.PushValue, time.Minute, boxes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Publish("doc", payload); err != nil {
		t.Fatal(err)
	}
	var shared *byte
	for i, mb := range boxes {
		f, ok := mb.take()
		if !ok {
			t.Fatalf("mailbox %d is empty", i)
		}
		if p := unsafe.SliceData(f.shared); i == 0 {
			shared = p
		} else if p != shared {
			t.Fatalf("mailbox %d holds its own encoding of the frame; want the one mailbox 0 holds", i)
		}
		var out strings.Builder
		id := fmt.Sprintf("lease-%d", i)
		if err := f.writeTo(&out, "", "", id, mb.mode); err != nil {
			t.Fatal(err)
		}
		var n Notification
		if err := json.Unmarshal([]byte(out.String()), &n); err != nil {
			t.Fatalf("mailbox %d wrote invalid JSON: %v\n%s", i, err, out.String())
		}
		reply, err := n.Reply()
		if err != nil {
			t.Fatal(err)
		}
		if n.LeaseID != id || n.Mode != "value" || n.Coalesced != 1 || n.Version != 1 || !bytes.Equal(reply.Full, payload) {
			t.Fatalf("mailbox %d wrote %+v", i, n)
		}
	}
}
