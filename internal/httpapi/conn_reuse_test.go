package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/replication"
	"coda/internal/store"
)

// TestNoReplyCallsReuseTheirConnection: a call whose reply the client does
// not decode — every method that passes no out, and every non-2xx answer
// such as a Lookup miss or a refused PUT — must still leave its connection
// reusable, and so must a pull, whose body the client reads by its
// Content-Length. Each method gets a server of its own (the transport
// pools per host) that counts the connections opened to it.
func TestNoReplyCallsReuseTheirConnection(t *testing.T) {
	const calls = 20
	ctx := context.Background()
	blob := bytes.Repeat([]byte("coda-object "), 700)
	edited := func(i int) []byte {
		b := bytes.Clone(blob)
		b[i*50] ^= 0xff
		return b
	}
	// pullCosting pulls key into rep and checks what the pull cost against
	// ok, so each case proves the reply kind it is named for.
	pullCosting := func(c *Client, rep *store.Replica, key string, ok func(n int64) bool) error {
		before := rep.BytesReceived()
		if err := c.PullObject(ctx, rep, key); err != nil {
			return err
		}
		if n := rep.BytesReceived() - before; !ok(n) {
			return fmt.Errorf("pull of %q cost %d payload bytes", key, n)
		}
		return nil
	}
	deltaRep, unchangedRep := store.NewReplica(), store.NewReplica()
	withStore := map[string]func(c *Client, i int) error{
		"Release": func(c *Client, i int) error { return c.Release(ctx, fmt.Sprintf("k%d", i)) },
		"Publish": func(c *Client, i int) error { return c.Publish(ctx, fmt.Sprintf("fp|k%d|e", i), 1, "x") },
		"PublishBatch": func(c *Client, i int) error {
			return c.PublishBatch(ctx, []darr.Record{{Key: fmt.Sprintf("fp|b%d|e", i), Score: 1}})
		},
		"LookupMiss": func(c *Client, i int) error {
			_, ok, err := c.Lookup(ctx, fmt.Sprintf("absent%d", i))
			if ok {
				return fmt.Errorf("lookup of an absent key hit")
			}
			return err
		},
		"AckLease": func(c *Client, i int) error {
			info, err := c.Subscribe(ctx, "obj", "notify", time.Minute, 0)
			if err != nil {
				return err
			}
			return c.AckLease(ctx, info.LeaseID, 0)
		},
		"CancelLease": func(c *Client, i int) error {
			info, err := c.Subscribe(ctx, "obj", "notify", time.Minute, 0)
			if err != nil {
				return err
			}
			return c.CancelLease(ctx, info.LeaseID)
		},
		"PutObject": func(c *Client, i int) error {
			_, err := c.PutObject(ctx, fmt.Sprintf("put%d", i), blob)
			return err
		},
		"PullObjectFull": func(c *Client, i int) error {
			if i == 0 {
				if _, err := c.PutObject(ctx, "full", blob); err != nil {
					return err
				}
			}
			return pullCosting(c, store.NewReplica(), "full", func(n int64) bool { return n == int64(len(blob)) })
		},
		"PullObjectDelta": func(c *Client, i int) error {
			if i == 0 { // the replica starts from a full copy
				if _, err := c.PutObject(ctx, "delta", blob); err != nil {
					return err
				}
				if err := c.PullObject(ctx, deltaRep, "delta"); err != nil {
					return err
				}
			}
			if _, err := c.PutObject(ctx, "delta", edited(i)); err != nil {
				return err
			}
			return pullCosting(c, deltaRep, "delta", func(n int64) bool { return n < int64(len(blob))/4 })
		},
		"PullObjectUnchanged": func(c *Client, i int) error {
			if i == 0 {
				if _, err := c.PutObject(ctx, "same", blob); err != nil {
					return err
				}
				if err := c.PullObject(ctx, unchangedRep, "same"); err != nil {
					return err
				}
			}
			return pullCosting(c, unchangedRep, "same", func(n int64) bool { return n <= 64 })
		},
		"PullObjectNotFound": func(c *Client, i int) error {
			if err := c.PullObject(ctx, store.NewReplica(), "ghost"); !errors.Is(err, store.ErrNotFound) {
				return fmt.Errorf("pull of an absent key: %v, want ErrNotFound", err)
			}
			return nil
		},
	}
	for name, call := range withStore {
		t.Run(name, func(t *testing.T) {
			hs := store.NewHomeStore(store.Options{BlockSize: 64})
			m := replication.NewManager(hs, nil)
			t.Cleanup(m.Close)
			srv := NewServer(darr.NewRepo(nil, time.Minute), hs)
			srv.EnableLeases(m)
			callsOpenOneConn(t, srv, calls, call)
		})
	}
	// A server with no home store answers every object route 404.
	withoutStore := map[string]func(c *Client, i int) error{
		"PutObjectNotFound": func(c *Client, i int) error {
			if _, err := c.PutObject(ctx, "k", blob); err == nil {
				return fmt.Errorf("put to a server without a store succeeded")
			}
			return nil
		},
		"PullObjectNoStore": func(c *Client, i int) error {
			if err := c.PullObject(ctx, store.NewReplica(), "k"); !errors.Is(err, store.ErrNotFound) {
				return fmt.Errorf("pull from a server without a store: %v, want ErrNotFound", err)
			}
			return nil
		},
	}
	for name, call := range withoutStore {
		t.Run(name, func(t *testing.T) {
			callsOpenOneConn(t, NewServer(darr.NewRepo(nil, time.Minute), nil), calls, call)
		})
	}
}

// callsOpenOneConn makes calls calls against srv through one client and
// fails unless all of them shared a single connection.
func callsOpenOneConn(t *testing.T, srv http.Handler, calls int, call func(c *Client, i int) error) {
	t.Helper()
	var opened atomic.Int64
	ts := httptest.NewUnstartedServer(srv)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "conn-client")
	for i := 0; i < calls; i++ {
		if err := call(c, i); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("%d calls opened %d connections, want 1", calls, n)
	}
}
