package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"coda/internal/darr"
	"coda/internal/replication"
	"coda/internal/store"
)

// newLeaseServer stands up a server with leases enabled on a manager built
// from cfg, plus a client pointed at it.
func newLeaseServer(t *testing.T, cfg replication.Config) (*Client, *replication.Manager, *Server, *httptest.Server) {
	t.Helper()
	return newLeaseServerAt(t, cfg, nil)
}

// newLeaseServerAt is newLeaseServer with the lease manager on the clock
// now (nil: the wall clock).
func newLeaseServerAt(t *testing.T, cfg replication.Config, now func() time.Time) (*Client, *replication.Manager, *Server, *httptest.Server) {
	t.Helper()
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManagerWith(hs, now, cfg)
	t.Cleanup(m.Close)
	srv := NewServer(darr.NewRepo(nil, time.Minute), hs)
	srv.heartbeat = 50 * time.Millisecond
	srv.EnableLeases(m)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, "lease-client"), m, srv, ts
}

// errFirstFrame stops firstFrame's stream at its first update frame.
var errFirstFrame = errors.New("first frame read")

// firstFrame streams lease id until its first update frame and returns it.
func firstFrame(ctx context.Context, t *testing.T, c *Client, id string) Notification {
	t.Helper()
	var n Notification
	err := c.StreamLease(ctx, id, func(got Notification) error {
		n = got
		return errFirstFrame
	})
	if !errors.Is(err, errFirstFrame) {
		t.Fatalf("streaming lease %s: %v, want an update frame", id, err)
	}
	return n
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
	if n := firstFrame(ctx, t, c, info.LeaseID); n.Version != 5 || n.Coalesced != 5 {
		t.Fatalf("coalesced frame %+v, want version 5 covering 5 publishes", n)
	}
	// Nothing further pending: a stream held for 100 ms carries no frame.
	quiet, stop := context.WithTimeout(ctx, 100*time.Millisecond)
	defer stop()
	err = c.StreamLease(quiet, info.LeaseID, func(n Notification) error { return fmt.Errorf("a further frame %+v", n) })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("quiet stream ended with %v, want its 100 ms deadline", err)
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
	n := firstFrame(ctx, t, c, info.LeaseID)
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
	var skew atomic.Int64 // how far the manager's clock runs ahead of the wall's
	c, m, _, _ := newLeaseServerAt(t, replication.Config{Workers: 1}, func() time.Time {
		return time.Now().Add(time.Duration(skew.Load()))
	})
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

	// Expiry (not just cancel) also releases server state via Sweep. The
	// 50 ms asked for is granted as minLeaseTTL.
	short, err := c.Subscribe(ctx, "k", "notify", 50*time.Millisecond, 0)
	if err != nil {
		t.Fatal(err)
	}
	skew.Store(int64(minLeaseTTL + time.Millisecond))
	// Expired but not yet swept: the lease routes answer 410 Gone.
	if err := c.AckLease(ctx, short.LeaseID, 1); err == nil || !strings.Contains(err.Error(), "status 410") {
		t.Fatalf("ack of an expired lease: %v, want status 410", err)
	}
	if err := c.StreamLease(ctx, short.LeaseID, func(Notification) error { return nil }); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("stream of an expired lease: %v, want ErrLeaseGone", err)
	}
	m.Sweep()
	if _, ok := m.LeaseByID(short.LeaseID); ok {
		t.Fatal("expired lease still registered after sweep")
	}
	if err := c.StreamLease(ctx, short.LeaseID, func(Notification) error { return nil }); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("stream of swept lease: %v, want ErrLeaseGone", err)
	}
}

// TestSlowStreamReaderIsCutOff: a subscriber that never reads its stream
// is cut off once a write has blocked for two heartbeats (100 ms here), so
// its handler returns and its connection closes, while a second lease on
// the same key whose reader keeps up gets every frame.
func TestSlowStreamReaderIsCutOff(t *testing.T) {
	c, _, _, ts := newLeaseServer(t, replication.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	slow, err := c.Subscribe(ctx, "big", "value", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := c.Subscribe(ctx, "big", "value", time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "GET /leases/%s/stream HTTP/1.1\r\nHost: coda\r\n\r\n", slow.LeaseID); err != nil {
		t.Fatal(err)
	}
	frames := make(chan Notification)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		_ = c.StreamLease(ctx, fast.LeaseID, func(n Notification) error {
			select {
			case frames <- n:
			case <-ctx.Done():
			}
			return nil
		}) // it ends when ctx does; a stream that ends early starves the loop below
	}()
	defer func() {
		cancel()
		<-streamDone
	}()

	// 40 frames of 256 KiB (~350 KB as base64) are more than the slow
	// connection's socket buffers hold (~4 MB on Linux loopback when
	// unread); each publish waits for the fast reader's frame.
	const publishes = 40
	for v := 1; v <= publishes; v++ {
		if _, err := c.PutObject(ctx, "big", bytes.Repeat([]byte{byte(v)}, 256<<10)); err != nil {
			t.Fatal(err)
		}
		select {
		case n := <-frames:
			if n.Version != uint64(v) || n.Coalesced != 1 {
				t.Fatalf("fast reader got version %d covering %d publishes, want version %d alone", n.Version, n.Coalesced, v)
			}
		case <-ctx.Done():
			t.Fatalf("fast reader never got version %d", v)
		}
	}

	// Well past the bound, the slow connection must be closed: reading it
	// now drains what the kernel holds and ends. A handler still blocked
	// would take the read as progress and keep the stream open.
	time.Sleep(500 * time.Millisecond)
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if n, err := io.Copy(io.Discard, conn); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the unread stream was still open after %d publishes (read %d bytes before the deadline)", publishes, n)
	}
}

// TestHugeLeaseTTLGetsTheCap: a TTL too large for time.Duration is granted
// the ceiling, on subscribe and on renew, not taken as a negative duration
// and replaced by the default.
func TestHugeLeaseTTLGetsTheCap(t *testing.T) {
	c, m, _, _ := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	const huge = 1e10 // seconds; 1e10 × 1e9 ns overflows int64
	var info LeaseInfo
	status, err := c.doJSON(ctx, http.MethodPost, "/leases",
		leaseRequest{Key: "k", ClientID: "c", Mode: "notify", TTLSeconds: huge}, &info)
	if err != nil || status != http.StatusCreated {
		t.Fatalf("subscribe: status %d, %v", status, err)
	}
	check := func(op string, info LeaseInfo) {
		t.Helper()
		if info.TTLSeconds != DefaultMaxLeaseTTL.Seconds() {
			t.Fatalf("%s granted %v s, want the %v cap", op, info.TTLSeconds, DefaultMaxLeaseTTL)
		}
		l, ok := m.LeaseByID(info.LeaseID)
		if !ok {
			t.Fatalf("%s: lease %s not registered", op, info.LeaseID)
		}
		if left := time.Until(l.Expires()); left < DefaultMaxLeaseTTL-time.Minute {
			t.Fatalf("%s: lease expires in %v, want about %v", op, left, DefaultMaxLeaseTTL)
		}
	}
	check("subscribe", info)
	var renewed LeaseInfo
	status, err = c.doJSON(ctx, http.MethodPost, "/leases/"+info.LeaseID+"/renew", renewRequest{TTLSeconds: huge}, &renewed)
	if err != nil || status != http.StatusOK {
		t.Fatalf("renew: status %d, %v", status, err)
	}
	check("renew", renewed)
}

// TestTinyLeaseTTLGetsTheFloor: a TTL too short to outlive its own grant
// is granted minLeaseTTL, on subscribe and on renew; 0 still means the
// default.
func TestTinyLeaseTTLGetsTheFloor(t *testing.T) {
	c, _, _, _ := newLeaseServer(t, replication.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := c.Subscribe(ctx, "k", "notify", time.Nanosecond, 0)
	if err != nil || info.TTLSeconds != minLeaseTTL.Seconds() {
		t.Fatalf("a 1 ns subscribe was granted %+v (%v), want the %v floor", info, err, minLeaseTTL)
	}
	renewed, err := c.RenewLease(ctx, info.LeaseID, time.Nanosecond)
	if err != nil || renewed.TTLSeconds != minLeaseTTL.Seconds() {
		t.Fatalf("a 1 ns renew was granted %+v (%v), want the %v floor", renewed, err, minLeaseTTL)
	}
	for seconds, want := range map[float64]time.Duration{1e-9: minLeaseTTL, 0: DefaultLeaseTTL, -1: DefaultLeaseTTL, 90: 90 * time.Second} {
		if got := leaseTTL(seconds); got != want {
			t.Errorf("leaseTTL(%v) = %v, want %v", seconds, got, want)
		}
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
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/leases/nope", nil)
	resp, err := http.DefaultClient.Do(req)
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
	// The default pool's one worker delivers each publish as it lands,
	// racing the handler that is creating the lease.
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
		n := firstFrame(ctx, t, c, info.LeaseID)
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
	t.Cleanup(m.Close)
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
	m.Flush()
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
		if err := f.writeTo(&out, id, mb.mode); err != nil {
			t.Fatal(err)
		}
		data, isEvent := strings.CutPrefix(out.String(), "event: update\ndata: ")
		data, ends := strings.CutSuffix(data, "\n\n")
		if !isEvent || !ends {
			t.Fatalf("mailbox %d wrote no SSE update event:\n%q", i, out.String())
		}
		var n Notification
		if err := json.Unmarshal([]byte(data), &n); err != nil {
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
