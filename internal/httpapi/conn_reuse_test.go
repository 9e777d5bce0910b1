package httpapi

import (
	"context"
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
// such as a Lookup miss — must still leave its connection reusable. Each
// method gets a server of its own (the transport pools per host) that
// counts the connections opened to it.
func TestNoReplyCallsReuseTheirConnection(t *testing.T) {
	const calls = 20
	ctx := context.Background()
	for name, call := range map[string]func(c *Client, i int) error{
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
	} {
		t.Run(name, func(t *testing.T) {
			hs := store.NewHomeStore(store.Options{BlockSize: 64})
			m := replication.NewManager(hs, nil)
			t.Cleanup(m.Close)
			srv := NewServer(darr.NewRepo(nil, time.Minute), hs)
			srv.EnableLeases(m)
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
		})
	}
}
