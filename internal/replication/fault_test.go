package replication_test

import (
	"bytes"
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/faultinject"
	"coda/internal/httpapi"
	"coda/internal/replication"
	"coda/internal/retry"
	"coda/internal/store"
)

// faultyHTTPClient wires a home store behind an HTTP server and returns a
// client whose transport injects the given faults.
func faultyHTTPClient(t *testing.T, hs store.ObjectStore, cfg faultinject.Config) (*httpapi.Client, *faultinject.Transport) {
	t.Helper()
	ts := httptest.NewServer(httpapi.NewServer(darr.NewRepo(nil, time.Minute), hs))
	t.Cleanup(ts.Close)
	tr := faultinject.NewTransport(nil, cfg)
	c := httpapi.NewClient(ts.URL, "replica-client")
	c.HTTP = &http.Client{Transport: tr, Timeout: 10 * time.Second}
	c.Retry = retry.Policy{MaxAttempts: 8, Sleep: func(ctx context.Context, _ time.Duration) error { return ctx.Err() }}
	return c, tr
}

// TestPushPullReplicationUnder30PercentLoss drives both replication
// directions over a wire dropping ~30% of requests: a producer pushes
// successive versions into the home store, a consumer pulls them into a
// replica, and the replica must converge to exactly the produced bytes.
func TestPushPullReplicationUnder30PercentLoss(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	producer, ptr := faultyHTTPClient(t, hs, faultinject.Config{Seed: 21, DropFraction: 0.3})
	consumer, ctr := faultyHTTPClient(t, hs, faultinject.Config{Seed: 22, DropFraction: 0.3})
	ctx := context.Background()

	rng := rand.New(rand.NewSource(4))
	data := make([]byte, 8192)
	rng.Read(data)
	rep := store.NewReplica()

	for version := 1; version <= 5; version++ {
		// Push: mutate a slice of the object and upload the new version.
		for i := 0; i < 32; i++ {
			data[rng.Intn(len(data))] ^= byte(1 + rng.Intn(255))
		}
		if _, err := producer.PutObject(ctx, "series", data); err != nil {
			t.Fatalf("push v%d under loss: %v", version, err)
		}
		// Pull: the consumer syncs its replica (deltas when they pay).
		if err := consumer.PullObject(ctx, rep, "series"); err != nil {
			t.Fatalf("pull v%d under loss: %v", version, err)
		}
		got, ok := rep.Data("series")
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("replica diverged at version %d", version)
		}
	}
	if ptr.Counts().Dropped == 0 || ctr.Counts().Dropped == 0 {
		t.Fatalf("fault injectors idle (producer %+v, consumer %+v) — test proves nothing",
			ptr.Counts(), ctr.Counts())
	}
}

// lossySubscriber models a push subscriber on a lossy link: it ignores a
// deterministic fraction of deliveries, as if they never arrived.
type lossySubscriber struct {
	rep  *store.Replica
	rng  *rand.Rand
	loss float64
	lost int
}

func (s *lossySubscriber) Deliver(u replication.Update) {
	if s.rng.Float64() < s.loss {
		s.lost++
		return
	}
	if u.Reply != nil {
		_ = s.rep.ApplyReply(u.Reply)
	}
}

// TestPushLossRepairedByPull shows the recovery loop the paper's
// lease-based push implies: when pushes are lost in transit the replica
// falls behind, and a single version-aware pull against the home store
// repairs it.
func TestPushLossRepairedByPull(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManager(hs, nil)
	t.Cleanup(m.Close)
	sub := &lossySubscriber{rep: store.NewReplica(), rng: rand.New(rand.NewSource(8)), loss: 0.5}
	if _, err := m.Subscribe("o", "edge-client", replication.PushValue, time.Hour, sub); err != nil {
		t.Fatal(err)
	}

	var latest []byte
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20; i++ {
		latest = make([]byte, 2048)
		rng.Read(latest)
		if _, err := m.Publish("o", latest); err != nil {
			t.Fatal(err)
		}
		m.Flush()
	}
	if sub.lost == 0 {
		t.Fatal("no pushes were lost — test proves nothing")
	}

	// Repair: ask the home store for everything past the version we hold.
	reply, err := hs.Get("o", sub.rep.VersionOf("o"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.rep.ApplyReply(reply); err != nil {
		t.Fatal(err)
	}
	got, ok := sub.rep.Data("o")
	if !ok || !bytes.Equal(got, latest) {
		t.Fatal("pull repair did not converge the replica to the latest version")
	}
}
