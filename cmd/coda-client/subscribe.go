package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"coda/internal/core"
	"coda/internal/dataset"
	"coda/internal/httpapi"
	"coda/internal/lifecycle"
	"coda/internal/mlmodels"
	"coda/internal/replication"
	"coda/internal/store"
	"coda/internal/tswindow"
)

// errSubscribeDone ends the stream loop once -count frames have arrived.
var errSubscribeDone = errors.New("subscribe: frame count reached")

// runSubscribe implements `coda-client subscribe`: take a lease, follow
// the push stream (SSE by default, long-poll with -poll), auto-renew at
// half-life, ack every frame, and — when a recompute trigger is armed —
// re-pull the object each time the accumulated change crosses the
// threshold, the push-driven alternative to polling for staleness.
func runSubscribe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("subscribe", flag.ExitOnError)
	var (
		server     = fs.String("server", "", "store server URL")
		key        = fs.String("key", "", "object key to watch")
		clientID   = fs.String("client", "cli", "client id on the lease")
		mode       = fs.String("mode", "notify", "push mode: value | delta | notify")
		ttl        = fs.Duration("ttl", time.Minute, "lease duration (auto-renewed at half-life)")
		count      = fs.Int("count", 0, "exit after this many update frames (0 = run until interrupted)")
		poll       = fs.Bool("poll", false, "long-poll instead of streaming over SSE")
		recomputeN = fs.Int("recompute-every", 0, "re-pull after this many pushed updates (0 disables the trigger)")
		recomputeB = fs.Int64("recompute-bytes", 0, "re-pull after this many changed bytes (0 disables the trigger)")
		lcSub      = fs.Bool("lifecycle-subscribe", false, "treat the object as a CSV series and keep a deployed AR model retrained from the notification stream (needs a -recompute-* trigger)")
		lcHistory  = fs.Int("lifecycle-history", 3, "AR model history for -lifecycle-subscribe")
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
	c := ft.client(*server, *clientID)

	rep := store.NewReplica()
	// Seed the replica so delta leases start from a known version.
	have := uint64(0)
	if err := c.PullObject(ctx, rep, *key); err == nil {
		have = rep.VersionOf(*key)
	} else if *lcSub {
		return fmt.Errorf("subscribe: -lifecycle-subscribe needs an existing object to train on: %w", err)
	}
	info, err := c.Subscribe(ctx, *key, *mode, *ttl, have)
	if err != nil {
		return err
	}
	fmt.Printf("lease %s on %q mode=%s ttl=%s current_version=%d\n",
		info.LeaseID, *key, info.Mode, *ttl, info.CurrentVersion)
	defer func() {
		// Cancel with a fresh context: the interrupt that ended the loop
		// already cancelled ctx.
		cctx, done := context.WithTimeout(context.Background(), 5*time.Second)
		defer done()
		if err := c.CancelLease(cctx, info.LeaseID); err != nil {
			slog.Warn("cancelling lease", "lease", info.LeaseID, "err", err)
		}
	}()

	// Change-detection trigger fed by the notification stream.
	var trig replication.Trigger
	switch {
	case *recomputeN > 0:
		trig = replication.CountTrigger{N: *recomputeN}
	case *recomputeB > 0:
		trig = replication.BytesTrigger{N: *recomputeB}
	}

	// parseSeries decodes the replica's current object bytes as a CSV
	// series for lifecycle retraining.
	parseSeries := func() (*dataset.Dataset, error) {
		data, ok := rep.Data(*key)
		if !ok {
			return nil, fmt.Errorf("object %q not in replica", *key)
		}
		return dataset.ReadCSV(bytes.NewReader(data), "")
	}

	var (
		mon *replication.Monitor
		mgr *lifecycle.Manager
	)
	switch {
	case *lcSub:
		// Model life-cycle management over the push stream: a deployed AR
		// pipeline is retrained from freshly pulled data each time the
		// change-detection trigger fires.
		if trig == nil {
			return fmt.Errorf("subscribe: -lifecycle-subscribe needs -recompute-every or -recompute-bytes")
		}
		mgr, err = lifecycle.NewManager(arPipelineBuilder(*lcHistory), trig)
		if err != nil {
			return err
		}
		initial, err := parseSeries()
		if err != nil {
			return fmt.Errorf("subscribe: parsing object for lifecycle training: %w", err)
		}
		if err := mgr.Train(initial); err != nil {
			return err
		}
		fmt.Printf("lifecycle: AR(%d) pipeline trained on %d samples of %q\n",
			*lcHistory, initial.NumSamples(), *key)
	case trig != nil:
		mon = replication.NewMonitor(trig)
	}

	// Renew at half-life so the lease outlives the stream, not vice versa.
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	go func() {
		t := time.NewTicker(*ttl / 2)
		defer t.Stop()
		for {
			select {
			case <-renewCtx.Done():
				return
			case <-t.C:
				if _, err := c.RenewLease(renewCtx, info.LeaseID, *ttl); err != nil {
					if renewCtx.Err() == nil {
						slog.Warn("lease renewal failed", "lease", info.LeaseID, "err", err)
					}
					return
				}
			}
		}
	}()

	seen := 0
	handle := func(n httpapi.Notification) error {
		seen++
		changed := n.ChangedBytes
		if n.Full != "" || n.Delta != "" {
			reply, err := n.Reply()
			if err != nil {
				return err
			}
			if changed == 0 {
				changed = reply.WireBytes()
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
		if err := c.AckLease(ctx, info.LeaseID, n.Version); err != nil {
			slog.Warn("acking frame", "lease", info.LeaseID, "version", n.Version, "err", err)
		}
		if mgr != nil {
			did, err := mgr.ObserveUpdate(replication.Update{
				Key: n.Key, Version: n.Version, Notify: true,
				Coalesced: n.Coalesced, ChangedBytes: changed,
			}, func() (*dataset.Dataset, error) {
				if err := c.PullObject(ctx, rep, *key); err != nil {
					return nil, err
				}
				return parseSeries()
			})
			switch {
			case err != nil:
				slog.Warn("lifecycle retrain failed", "key", *key, "err", err)
			case did:
				s := mgr.PendingUpdates()
				fmt.Printf("retrain #%d: trigger fired, model refit on %q v%d (pending now %d updates / %d bytes)\n",
					mgr.Retrains(), *key, rep.VersionOf(*key), s.Count, s.Bytes)
			}
		}
		if mon != nil {
			mon.ObserveUpdate(replication.Update{
				Key: n.Key, Version: n.Version, Notify: true,
				Coalesced: n.Coalesced, ChangedBytes: changed,
			})
			if mon.Check() {
				if err := c.PullObject(ctx, rep, *key); err != nil {
					slog.Warn("recompute pull failed", "key", *key, "err", err)
				} else {
					s := mon.Stats()
					fmt.Printf("recompute #%d: trigger fired after %d updates / %d bytes, pulled %q v%d\n",
						mon.Recomputes()+1, s.Count, s.Bytes, *key, rep.VersionOf(*key))
				}
				mon.Reset()
			}
		}
		if *count > 0 && seen >= *count {
			return errSubscribeDone
		}
		return nil
	}

	if *poll {
		for {
			n, ok, err := c.PollLease(ctx, info.LeaseID, 25*time.Second)
			if err != nil {
				if ctx.Err() != nil {
					return nil
				}
				return err
			}
			if !ok {
				continue
			}
			if err := handle(*n); err != nil {
				if errors.Is(err, errSubscribeDone) {
					return nil
				}
				return err
			}
		}
	}
	err = c.StreamLease(ctx, info.LeaseID, handle)
	switch {
	case errors.Is(err, errSubscribeDone), errors.Is(err, context.Canceled):
		return nil
	case errors.Is(err, httpapi.ErrLeaseGone):
		return fmt.Errorf("lease expired server-side; re-run subscribe")
	case errors.Is(err, io.ErrUnexpectedEOF):
		return fmt.Errorf("lease stream dropped, the server restarted or went away; re-run subscribe: %w", err)
	default:
		return err
	}
}

// arPipelineBuilder returns the lifecycle manager's fresh-pipeline factory:
// TS-as-is preprocessing into an AR(history) model on series column 0.
func arPipelineBuilder(history int) func() *core.Pipeline {
	return func() *core.Pipeline {
		g := core.NewGraph()
		g.AddTransformerStage("view", tswindow.NewTSAsIs(1, 0))
		g.AddEstimatorStage("model", mlmodels.NewARModel(history, 0))
		if err := g.Finalize(); err != nil {
			return nil
		}
		p, err := core.NewPipeline(g.Paths()[0])
		if err != nil {
			return nil
		}
		return p
	}
}
