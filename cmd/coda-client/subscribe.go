package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"coda/internal/httpapi"
	"coda/internal/store"
)

// errSubscribeDone ends the stream loop once -count frames have arrived.
var errSubscribeDone = errors.New("subscribe: frame count reached")

// runSubscribe implements `coda-client subscribe`: take a lease, follow
// its SSE push stream, apply each payload frame to a replica, and print
// what every frame says changed.
func runSubscribe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	var (
		server   = fs.String("server", "", "store server URL")
		key      = fs.String("key", "", "object key to watch")
		clientID = fs.String("client", "cli", "client id on the lease")
		mode     = fs.String("mode", "notify", "push mode: value | delta | notify")
		ttl      = fs.Duration("ttl", time.Minute, "lease duration asked for (auto-renewed at half the granted TTL)")
		count    = fs.Int("count", 0, "exit after this many update frames (0 = run until interrupted)")
	)
	ft := addFaultFlags(fs)
	lf := addLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := lf.setup(); err != nil {
		return err
	}
	if *server == "" || *key == "" {
		return fmt.Errorf("subscribe needs -server and -key")
	}
	if *ttl <= 0 {
		return fmt.Errorf("subscribe: -ttl must be positive, got %v", *ttl)
	}
	c := ft.client(*server, *clientID)
	rep := store.NewReplica()
	l, err := openLease(ctx, c, rep, *key, *mode, *ttl)
	if err != nil {
		return err
	}
	exitCtx, cancelExit := windDown(ctx)
	defer cancelExit()
	defer l.close(exitCtx)

	seen := 0
	return l.follow(ctx, func(n httpapi.Notification) error {
		seen++
		if n.Full != "" || n.Delta != "" {
			reply, err := n.Reply()
			if err != nil {
				return err
			}
			if err := rep.ApplyReply(reply); err != nil {
				return fmt.Errorf("applying pushed %s: %w", reply.Kind(), err)
			}
			data, _ := rep.Data(*key)
			fmt.Printf("update %q v%d (%s, %d publishes coalesced, %d bytes on the wire, object now %d bytes)\n",
				*key, n.Version, reply.Kind(), n.Coalesced, reply.WireBytes(), len(data))
		} else {
			fmt.Printf("notify %q v%d (%d publishes coalesced, ~%d bytes changed)\n",
				*key, n.Version, n.Coalesced, n.ChangedBytes)
		}
		if *count > 0 && seen >= *count {
			return errSubscribeDone
		}
		return nil
	})
}

// lease is a command's subscription to one object on the home store:
// subscribe prints its frames, serve -key re-searches on them.
type lease struct {
	c         *httpapi.Client
	info      *httpapi.LeaseInfo
	stopRenew context.CancelFunc
}

// openLease seeds rep with key's current version, when the object exists,
// and takes a mode lease on key from that version, so frames are changes
// past what rep holds. The lease is renewed until close at half the TTL
// the server granted, which caps what ttl asks for. Frames published
// before follow starts wait for it on the server.
func openLease(ctx context.Context, c *httpapi.Client, rep *store.Replica, key, mode string, ttl time.Duration) (*lease, error) {
	// A missing object is followed from version 0.
	_ = c.PullObject(ctx, rep, key)
	info, err := c.Subscribe(ctx, key, mode, ttl, rep.VersionOf(key))
	if err != nil {
		return nil, err
	}
	granted := time.Duration(info.TTLSeconds * float64(time.Second))
	fmt.Printf("lease %s on %q mode=%s ttl=%s current_version=%d\n",
		info.LeaseID, key, info.Mode, granted, info.CurrentVersion)
	renewCtx, stop := context.WithCancel(ctx)
	go func() {
		t := time.NewTicker(max(granted/2, time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if _, err := c.RenewLease(renewCtx, info.LeaseID, ttl); err != nil {
					if renewCtx.Err() == nil {
						slog.Warn("lease renewal failed", "lease", info.LeaseID, "err", err)
					}
					return
				}
			}
		}
	}()
	return &lease{c: c, info: info, stopRenew: stop}, nil
}

// close stops the renewals and cancels the lease, giving up when ctx, the
// command's windDown context, ends.
func (l *lease) close(ctx context.Context) {
	l.stopRenew()
	ctx, done := context.WithTimeout(ctx, exitBudget)
	defer done()
	if err := l.c.CancelLease(ctx, l.info.LeaseID); err != nil {
		slog.Warn("cancelling lease", "lease", l.info.LeaseID, "err", err)
	}
}

// exitBudget bounds a command's exit from the moment it is told to stop:
// draining serve's listener, waiting out its follow loop and a re-search,
// and cancelling the lease all fit inside it, with room to spare in the
// 5 s TestSmoke gives a process between a signal and its exit.
const exitBudget = 3 * time.Second

// windDown returns the context a command's exit runs under: ctx's values
// without its cancellation, ending exitBudget after ctx ends.
func windDown(ctx context.Context) (context.Context, context.CancelFunc) {
	exitCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := context.AfterFunc(ctx, func() { time.AfterFunc(exitBudget, cancel) })
	return exitCtx, func() { stop(); cancel() }
}

// follow streams the lease's frames over SSE, acks each and hands it to
// handle. It returns nil once ctx ends or handle returns errSubscribeDone,
// handle's other errors as they are, and an error naming the remedy when
// the lease or its stream is gone.
func (l *lease) follow(ctx context.Context, handle func(httpapi.Notification) error) error {
	each := func(n httpapi.Notification) error {
		if err := l.c.AckLease(ctx, l.info.LeaseID, n.Version); err != nil {
			slog.Warn("acking frame", "lease", l.info.LeaseID, "version", n.Version, "err", err)
		}
		return handle(n)
	}
	switch err := l.c.StreamLease(ctx, l.info.LeaseID, each); {
	case errors.Is(err, errSubscribeDone), errors.Is(err, context.Canceled):
		return nil
	case errors.Is(err, httpapi.ErrLeaseGone):
		return fmt.Errorf("lease expired server-side; re-run the command")
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("lease stream dropped, the server restarted or went away; re-run the command: %w", err)
	default:
		return err
	}
}
