package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"coda/internal/httpapi"
	"coda/internal/obs/trace"
	"coda/internal/replication"
	"coda/internal/store"
)

// objects is the benchmark's own model of the home store: the bytes it
// last put under every key.
type objects struct {
	keys []string
	data map[string][]byte
	rng  *rand.Rand
}

func newObjects(rng *rand.Rand, prefix string, count, size int) *objects {
	o := &objects{data: map[string][]byte{}, rng: rng}
	for i := 0; i < count; i++ {
		k := fmt.Sprintf("%s%d", prefix, i)
		d := make([]byte, size)
		rng.Read(d)
		o.keys = append(o.keys, k)
		o.data[k] = d
	}
	return o
}

// edit rewrites runs random runs of the object totalling frac of its bytes.
func (o *objects) edit(key string, runs int, frac float64) []byte {
	d := o.data[key]
	n := int(frac * float64(len(d)) / float64(runs))
	if n < 1 {
		n = 1
	}
	for r := 0; r < runs; r++ {
		off := o.rng.Intn(len(d) - n + 1)
		o.rng.Read(d[off : off+n])
	}
	return d
}

// compactor runs the store's compaction on the benchmark's schedule and
// keeps the directory's write accounting for the amplification ratios.
type compactor struct {
	n        *node
	every    int
	puts     int
	spent    time.Duration // total time in compaction, not part of the measured wall
	compacts []float64     // ms

	lastSize, written int64
}

func (c *compactor) afterPut() error {
	c.puts++
	if c.puts%c.every != 0 {
		return nil
	}
	return c.compact()
}

func (c *compactor) compact() error {
	dir := filepath.Join(c.n.dir, "store")
	before := dirBytes(dir)
	c.written += before - c.lastSize // log appended since the last compaction
	t0 := time.Now()
	err := c.n.hs.CompactBackend()
	d := time.Since(t0)
	c.spent += d
	c.compacts = append(c.compacts, ms(d))
	c.lastSize = dirBytes(dir)
	c.written += c.lastSize // the snapshot compaction wrote
	return err
}

func sum(b []byte) [32]byte { return sha256.Sum256(b) }

func runSyncDelta(b *bench) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(b.seed))
	objs := newObjects(rng, "obj", b.sz.SyncObjects, b.sz.ObjectBytes)
	dir := filepath.Join(b.dataRoot, "sync")
	node, err := b.boot(dir)
	if err != nil {
		return err
	}
	defer func() {
		if node != nil { // nil after a failed reboot
			_ = node.close()
		}
	}()
	hc := b.client(node, "writer")
	r1 := store.NewReplica()
	for _, k := range objs.keys {
		if _, err := hc.PutObject(ctx, k, objs.data[k]); err != nil {
			return err
		}
		if err := hc.PullObject(ctx, r1, k); err != nil {
			return err
		}
	}
	comp := &compactor{n: node, every: b.sz.CompactEvery}

	type cycleStats struct {
		put, pull, pullFull []float64
		fallbacks           int
		logical             int64 // bytes of the versions R1 synced
		tracedCycle         []bool
		cycleMS             []float64
		ops                 int
	}
	// cycles runs the closed loop: edit -> put -> R1 pulls (delta), with a
	// full pull by an empty replica every 10th cycle and, every 10th cycle
	// at offset 5, an edit too large for a delta.
	cycles := func(count int, traceEvery int) (cycleStats, error) {
		var st cycleStats
		meter := b.meter(count, 4, comp) // a reference sample every 4 cycles: about 8% of the loop
		for i := 0; i < count && meter.at(i, st.ops); i++ {
			if traceEvery > 0 {
				on := (i/traceEvery)%2 == 0
				trace.SetEnabled(on)
				st.tracedCycle = append(st.tracedCycle, on)
			}
			c0 := time.Now()
			key := objs.keys[rng.Intn(len(objs.keys))]
			big := i%10 == 5
			var data []byte
			if big {
				data = objs.edit(key, 1, 0.60)
			} else {
				data = objs.edit(key, 4, 0.01)
			}
			t0 := time.Now()
			version, err := hc.PutObject(ctx, key, data)
			st.put = append(st.put, ms(time.Since(t0)))
			b.op(st.put[len(st.put)-1])
			if err != nil {
				return st, err
			}
			had, got0 := r1.VersionOf(key), r1.BytesReceived()
			t0 = time.Now()
			err = hc.PullObject(ctx, r1, key)
			d := ms(time.Since(t0))
			if err != nil {
				return st, err
			}
			wire := r1.BytesReceived() - got0
			st.logical += int64(len(data))
			wasFull := wire >= int64(len(data))
			switch {
			case r1.VersionOf(key) != version || version <= had:
				b.failf(1, "cycle %d: R1 went %d -> %d of %q, put returned %d", i, had, r1.VersionOf(key), key, version)
			case wasFull != big:
				b.failf(1, "cycle %d: pull moved %d wire bytes for a %d-byte object, large edit %v", i, wire, len(data), big)
			}
			if big {
				st.fallbacks++
			} else {
				st.pull = append(st.pull, d)
			}
			st.ops += 2
			if i%10 == 0 {
				st.ops++
				r2 := store.NewReplica()
				t0 = time.Now()
				err := hc.PullObject(ctx, r2, key)
				st.pullFull = append(st.pullFull, ms(time.Since(t0)))
				if err != nil {
					return st, err
				}
				if got, _ := r2.Data(key); !bytes.Equal(got, data) {
					b.failf(1, "cycle %d: empty replica's full pull of %q differs from the put", i, key)
				}
			}
			st.cycleMS = append(st.cycleMS, ms(time.Since(c0)))
			if err := comp.afterPut(); err != nil {
				return st, err
			}
		}
		meter.end(st.ops)
		if traceEvery > 0 {
			trace.SetEnabled(true)
		}
		return st, nil
	}
	if _, err := cycles(b.sz.SyncWarmup, 0); err != nil {
		return err
	}
	if b.traced {
		b.probeDataLayers(objs)
	}
	b.endSetup()

	mark, recv0, stats0 := b.mark(), r1.BytesReceived(), node.hs.Stats()
	traceEvery := 0
	if b.traced {
		traceEvery = max(1, b.sz.SyncCycles/8)
	}
	var st cycleStats
	_, err = timed(func() (err error) {
		st, err = cycles(b.sz.SyncCycles, traceEvery)
		return err
	})
	if err != nil {
		return err
	}
	b.attempted += st.ops
	wall := b.measuredWall()
	b.set("put_ms.p50", percentile(st.put, 0.50))
	b.set("put_ms.p90", percentile(st.put, 0.90))
	b.set("pull_ms.p50", median(st.pull))
	b.set("pull_full_ms.p50", median(st.pullFull))
	b.set("sync_ops_per_s", float64(st.ops)/wall.Seconds())
	b.set("wire_ratio", float64(r1.BytesReceived()-recv0)/float64(st.logical))

	// Every replica copy must equal the model, and so must the home copy.
	fresh := store.NewReplica()
	for _, k := range objs.keys {
		if err := hc.PullObject(ctx, fresh, k); err != nil {
			return err
		}
		got, _ := r1.Data(k)
		home, _ := fresh.Data(k)
		if sum(got) != sum(objs.data[k]) || sum(home) != sum(objs.data[k]) {
			b.failf(1, "object %q: R1 or the home copy differs from the last put", k)
		}
	}

	if b.traced {
		b.setDataLayers(b.since(mark), "", comp, node, stats0, st.fallbacks)
		pulls := len(st.pull) + st.fallbacks + len(st.pullFull)
		b.set("store.delta_reply_ratio", float64(len(st.pull))/float64(pulls))
		b.set("store.fallback_full", float64(st.fallbacks))
		deltaWire := r1.BytesReceived() - recv0 - int64(st.fallbacks*b.sz.ObjectBytes)
		b.set("delta.wire_bytes_per_edit", float64(deltaWire)/float64(len(st.pull)))
		b.set("obs.trace_overhead_ratio", overheadRatio(st.cycleMS, st.tracedCycle))
		b.chainPutPull()
	}

	// Recovery: close, reopen on the same DSNs, first successful pull.
	var recoverS, openMS []float64
	for rep := 0; rep < b.sz.RecoverReps; rep++ {
		if err := node.close(); err != nil {
			return err
		}
		key := objs.keys[rep%len(objs.keys)]
		d, err := timed(func() (err error) {
			node, err = b.boot(dir)
			if err != nil {
				return err
			}
			hc = b.client(node, "writer")
			return hc.PullObject(ctx, r1, key)
		})
		b.attempted++
		if err != nil {
			return err
		}
		if got, _ := r1.Data(key); sum(got) != sum(objs.data[key]) {
			b.failf(1, "after restart %d: %q differs from the last put", rep, key)
		}
		recoverS = append(recoverS, d.Seconds())
		if b.traced {
			openMS = append(openMS, 1000*node.kv.Stats().OpenSeconds)
		}
	}
	b.set("recover_s", median(recoverS))
	if b.traced {
		b.set("persist.open_ms", median(openMS))
	}
	return nil
}

func runPushFanout(b *bench) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rng := rand.New(rand.NewSource(b.seed))
	objs := newObjects(rng, "o", b.sz.PushObjects, b.sz.ObjectBytes)
	node, err := b.boot(filepath.Join(b.dataRoot, "push"))
	if err != nil {
		return err
	}
	defer func() { _ = node.close() }()
	hc := b.client(node, "writer")
	for _, k := range objs.keys {
		if _, err := hc.PutObject(ctx, k, objs.data[k]); err != nil {
			return err
		}
	}
	const hot = "o0"

	// In-process leases: each acknowledges what it is handed, so the next
	// push is a delta against it.
	var delivered, coalesced atomic.Int64
	var lastDelivery atomic.Int64 // unix nanos of the delivery completing a round
	round := make(chan struct{}, 1)
	leases := make([]*replication.Lease, b.sz.PushLeases)
	var subscribeUS []float64
	for i := range leases {
		i := i
		t0 := time.Now()
		l, err := node.leases.Subscribe(hot, fmt.Sprintf("in-%d", i), replication.PushDelta, time.Hour,
			replication.SubscriberFunc(func(u replication.Update) {
				leases[i].AckVersion(u.Version)
				if u.Coalesced > 1 {
					coalesced.Add(int64(u.Coalesced - 1))
				}
				if delivered.Add(1)%int64(len(leases)) == 0 {
					lastDelivery.Store(time.Now().UnixNano())
					round <- struct{}{}
				}
			}))
		subscribeUS = append(subscribeUS, us(time.Since(t0)))
		if err != nil {
			return err
		}
		leases[i] = l
		l.AckVersion(1)
	}

	// The SSE lease: a replica fed by the stream on a second connection.
	sub := b.client(node, "sse")
	rep := store.NewReplica()
	if err := sub.PullObject(ctx, rep, hot); err != nil {
		return err
	}
	info, err := sub.Subscribe(ctx, hot, "delta", time.Hour, rep.VersionOf(hot))
	if err != nil {
		return err
	}
	type arrival struct {
		version uint64
		at      time.Time
	}
	arrived := make(chan arrival, 1)
	var streamWG sync.WaitGroup
	var streamErr error
	streamWG.Add(1)
	go func() {
		defer streamWG.Done()
		streamErr = sub.StreamLease(ctx, info.LeaseID, func(n httpapi.Notification) error {
			reply, err := n.Reply()
			if err != nil {
				return err
			}
			if err := rep.ApplyReply(reply); err != nil {
				return err
			}
			at := time.Now()
			if err := sub.AckLease(ctx, info.LeaseID, n.Version); err != nil {
				return err
			}
			arrived <- arrival{n.Version, at}
			return nil
		})
		if errors.Is(streamErr, context.Canceled) {
			streamErr = nil
		}
	}()
	stopStream := func() error {
		cancel()
		streamWG.Wait()
		return streamErr
	}

	comp := &compactor{n: node, every: b.sz.CompactEvery}
	type pushStats struct {
		put, lag, complete []float64
		ops                int
	}
	cycles := func(count int) (pushStats, error) {
		var st pushStats
		meter := b.meter(count, 1, comp)
		for i := 0; i < count && meter.at(i, st.ops); i++ {
			data := objs.edit(hot, 4, 0.01)
			sent := time.Now()
			version, err := hc.PutObject(ctx, hot, data)
			st.put = append(st.put, ms(time.Since(sent)))
			if err != nil {
				return st, err
			}
			select {
			case a := <-arrived:
				if a.version != version {
					b.failf(1, "cycle %d: SSE subscriber got version %d, put returned %d", i, a.version, version)
				}
				st.lag = append(st.lag, ms(a.at.Sub(sent)))
				b.op(st.lag[len(st.lag)-1])
			case <-time.After(10 * time.Second):
				return st, fmt.Errorf("cycle %d: SSE subscriber never got version %d", i, version)
			}
			select {
			case <-round:
				st.complete = append(st.complete, ms(time.Unix(0, lastDelivery.Load()).Sub(sent)))
			case <-time.After(10 * time.Second):
				return st, fmt.Errorf("cycle %d: %d of %d in-process deliveries", i, delivered.Load()%int64(len(leases)), len(leases))
			}
			st.ops++
			if err := comp.afterPut(); err != nil {
				return st, err
			}
			if i%2 == 1 {
				cold := objs.keys[1+(i/2)%(len(objs.keys)-1)]
				if _, err := hc.PutObject(ctx, cold, objs.edit(cold, 4, 0.01)); err != nil {
					return st, err
				}
				st.ops++
				if err := comp.afterPut(); err != nil {
					return st, err
				}
			}
		}
		meter.end(st.ops)
		node.leases.Flush()
		return st, nil
	}
	if _, err := cycles(b.sz.PushWarmup); err != nil {
		return errors.Join(err, stopStream())
	}
	if b.traced {
		b.probeDataLayers(objs)
	}
	b.endSetup()

	mark, delivered0, stats0 := b.mark(), delivered.Load(), node.hs.Stats()
	var st pushStats
	_, err = timed(func() (err error) {
		st, err = cycles(b.sz.PushCycles)
		return err
	})
	if err != nil {
		return errors.Join(err, stopStream())
	}
	b.attempted += st.ops
	wall := b.measuredWall()
	b.set("put_ms.p50", percentile(st.put, 0.50))
	b.set("put_ms.p90", percentile(st.put, 0.90))
	b.set("push_lag_ms.p50", percentile(st.lag, 0.50))
	b.set("push_lag_ms.p90", percentile(st.lag, 0.90))
	got := delivered.Load() - delivered0
	b.set("fanout_deliveries_per_s", float64(got)/wall.Seconds())

	if err := stopStream(); err != nil {
		return err
	}
	if want := int64(len(leases) * len(st.put)); got != want {
		b.failf(len(st.put), "in-process deliveries %d, want %d leases x %d puts = %d", got, len(leases), len(st.put), want)
	}
	if data, _ := rep.Data(hot); sum(data) != sum(objs.data[hot]) {
		b.failf(1, "SSE subscriber's final copy of %q differs from the last put", hot)
	}
	if cur, err := node.hs.Current(hot); err != nil || cur.Num != rep.VersionOf(hot) {
		b.failf(1, "SSE subscriber holds version %d, home has %d (%v)", rep.VersionOf(hot), cur.Num, err)
	}

	if b.traced {
		spans := b.since(mark)
		b.setDataLayers(spans, hot, comp, node, stats0, 0)
		b.set("replication.fanout_complete_ms.p50", median(st.complete))
		b.set("replication.deliveries", float64(got))
		b.set("replication.coalesced", float64(coalesced.Load()))
		b.set("replication.subscribe_us.p50", median(subscribeUS))
		// What the PUT handler spends outside the store write: the lease
		// snapshot and the enqueue of every lease.
		b.set("replication.publish_ms.p50", median(handlerMinusStore(spans, hot)))
		var pushed int64
		for _, l := range leases {
			pushed += l.BytesPushed()
		}
		b.set("delta.wire_bytes_per_edit", float64(pushed)/float64(delivered.Load()))
		b.chainPutPull()
		b.note("chain push_lag_ms.p50 %.3f = put_ms.p50 %.3f + fanout to the SSE lease, frame and decode %.3f; replication.fanout_complete_ms.p50 %.3f",
			b.values["push_lag_ms.p50"], b.values["put_ms.p50"], b.values["push_lag_ms.p50"]-b.values["put_ms.p50"],
			b.values["replication.fanout_complete_ms.p50"])
	}
	return nil
}
