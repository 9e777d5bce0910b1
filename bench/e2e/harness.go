package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"coda/internal/darr"
	"coda/internal/httpapi"
	"coda/internal/persist"
	"coda/internal/replication"
	"coda/internal/store"
)

// sizes fixes every count of every workload. The loops are count-based so
// that counters repeat exactly; -seconds scales the repetition counts from
// the full preset, which is calibrated to measure for about runSeconds on
// the 2-core reference box.
type sizes struct {
	// search-cold-ts
	TSSteps, TSEpochs, ColdReps int
	// search-coop-grid
	GridSamples, CoopReps, WarmSearches, WarmupSearches int
	// sync-delta
	SyncObjects, SyncCycles, SyncWarmup, RecoverReps int
	// push-fanout
	PushObjects, PushLeases, PushCycles, PushWarmup int
	// both data workloads
	ObjectBytes, CompactEvery int
	// traced pass: samples per direct layer probe
	ProbeReps int
}

const runSeconds = 16

// blocks is how many blocks a measured loop is cut into for ops_per_s.
const blocks = 20

var presets = map[string]sizes{
	"full": {
		TSSteps: 400, TSEpochs: 5, ColdReps: 12,
		GridSamples: 400, CoopReps: 2, WarmSearches: 3000, WarmupSearches: 400,
		SyncObjects: 64, SyncCycles: 16000, SyncWarmup: 3000, RecoverReps: 5,
		PushObjects: 8, PushLeases: 1000, PushCycles: 2000, PushWarmup: 500,
		ObjectBytes: 32 << 10, CompactEvery: 1000,
		ProbeReps: 5,
	},
	"tiny": {
		TSSteps: 120, TSEpochs: 1, ColdReps: 2,
		GridSamples: 60, CoopReps: 1, WarmSearches: 12, WarmupSearches: 2,
		SyncObjects: 4, SyncCycles: 200, SyncWarmup: 20, RecoverReps: 2,
		PushObjects: 2, PushLeases: 20, PushCycles: 100, PushWarmup: 10,
		ObjectBytes: 32 << 10, CompactEvery: 50,
		ProbeReps: 2,
	},
}

// scaled returns the preset with its repetition counts multiplied by
// seconds/runSeconds (never below the count a median needs).
func (s sizes) scaled(seconds int) sizes {
	f := float64(seconds) / runSeconds
	scale := func(n, min int) int {
		v := int(math.Round(float64(n) * f))
		if v < min {
			v = min
		}
		return v
	}
	s.ColdReps = scale(s.ColdReps, 1)
	s.CoopReps = scale(s.CoopReps, 1)
	s.WarmSearches = scale(s.WarmSearches, 10)
	s.SyncCycles = scale(s.SyncCycles, 20)
	s.PushCycles = scale(s.PushCycles, 10)
	return s
}

// bench is one run of one workload: its inputs, its spans (traced pass
// only), the operations it attempted and the numbers it produced.
type bench struct {
	workload string
	seed     int64
	sz       sizes
	traced   bool
	dataRoot string // this run's private DSN root
	dsnFS    string // "tmpfs" or "disk", recorded in the output

	rec *recorder // nil unless traced

	started   time.Time
	seconds   int       // -seconds; 0 puts no limit on the measured loops
	measuring time.Time // when set-up ended

	attempted, failed int
	checks            []string // failed correctness checks

	host   *hostRef // the host-speed reference timed between operations
	cur    block    // the measured block being filled
	blocks []block

	values map[string]float64 // every number produced, by catalogue name
	notes  []string           // chain lines and other human-readable output
}

func (b *bench) set(name string, v float64) { b.values[name] = v }

// failf records a failed correctness check; the run exits non-zero.
func (b *bench) failf(ops int, format string, args ...any) {
	b.failed += max(ops, 1)
	if len(b.checks) < 20 {
		b.checks = append(b.checks, fmt.Sprintf(format, args...))
	}
}

// block is one measured block: ops operations in wall (reference and
// compaction time left out), the latencies of the workload's op and the
// reference samples taken in it.
type block struct {
	ops   int
	wall  time.Duration
	opMS  []float64
	refMS []float64
}

// How much slower than nominal the host ran during the block. A rate is a
// mean over the block's wall time, so it is scaled by the mean of the
// reference samples: a vCPU taken away for 20 ms stretches both alike. A
// median latency does not see such a stall, so it is scaled by the mean of
// the samples that did not see one either.
func (bl block) rateSlowdown() float64    { return mean(bl.refMS) / refNominalMS }
func (bl block) latencySlowdown() float64 { return mean(unstalled(bl.refMS)) / refNominalMS }

// unstalled drops the samples more than three times the median: the thread
// was off the CPU while they ran.
func unstalled(samples []float64) []float64 {
	limit := 3 * median(samples)
	var out []float64
	for _, v := range samples {
		if v <= limit {
			out = append(out, v)
		}
	}
	return out
}

func mean(samples []float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum / float64(len(samples))
}

// endSetup closes the set-up phase: everything before it is set-up time.
// What the warm-up pass measured is dropped.
func (b *bench) endSetup() {
	b.set("host.setup_raw_s", time.Since(b.started).Seconds())
	b.cur, b.blocks = block{}, nil
	b.measuring = time.Now()
}

// overtime reports that the measured loops have run for more than one and a
// half times -seconds: the host is so slow that finishing the counts would
// break the time limit on all runs together, so a loop stops at its next
// block boundary. On a host near reference speed it is never true, and the
// counts, and every counter, repeat exactly.
func (b *bench) overtime() bool {
	return b.seconds > 0 && !b.measuring.IsZero() && time.Since(b.measuring) > time.Duration(b.seconds)*1500*time.Millisecond
}

// op records one latency of the workload's op in the current block.
func (b *bench) op(latencyMS float64) { b.cur.opMS = append(b.cur.opMS, latencyMS) }

// ref times the reference kernel once, between two operations, and returns
// how long it took so that the caller can leave it out of its wall time.
func (b *bench) ref() time.Duration {
	v := b.host.run()
	b.cur.refMS = append(b.cur.refMS, v)
	return time.Duration(v * float64(time.Millisecond))
}

// measuredWall is the wall time of all measured blocks.
func (b *bench) measuredWall() (wall time.Duration) {
	for _, bl := range b.blocks {
		wall += bl.wall
	}
	return wall
}

// endBlock closes the current block: ops operations in wall.
func (b *bench) endBlock(ops int, wall time.Duration) {
	b.cur.ops, b.cur.wall = ops, wall
	b.blocks = append(b.blocks, b.cur)
	b.cur = block{}
}

// timed runs fn after a GC, so that a collection owed by the previous
// phase is not charged to this one.
func timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	err := fn()
	return time.Since(t0), err
}

// blockMeter cuts a measured loop of count iterations into blocks of equal
// count and times the reference kernel every refEvery iterations. Time the
// compactor and the reference spent is left out of a block: the compactor
// is timed on its own.
type blockMeter struct {
	b        *bench
	comp     *compactor
	per      int
	refEvery int
	start    time.Time
	ops      int
	spent    time.Duration // compactor's total when the block began
	ref      time.Duration // reference time inside the block
	ended    bool          // at stopped the loop after closing a block
}

func (b *bench) meter(count, refEvery int, comp *compactor) *blockMeter {
	return &blockMeter{b: b, comp: comp, per: max(1, count/blocks), refEvery: refEvery, start: time.Now(), spent: comp.spent}
}

// at is called at the top of iteration i with the operations done so far.
// It returns false when the loop should stop: a block has just ended and
// the run is over its time.
func (m *blockMeter) at(i, ops int) bool {
	if i > 0 && i%m.per == 0 {
		m.end(ops)
		if m.b.overtime() {
			m.ended = true
			return false
		}
		m.start, m.ops, m.spent, m.ref = time.Now(), ops, m.comp.spent, 0
	}
	if i%m.refEvery == 0 {
		m.ref += m.b.ref()
	}
	return true
}

// end closes the last block, unless at already did.
func (m *blockMeter) end(ops int) {
	if m.ended {
		return
	}
	m.b.endBlock(ops-m.ops, time.Since(m.start)-(m.comp.spent-m.spent)-m.ref)
}

// overheadRatio is median(on) / median(off) - 1 over samples taken in
// alternating blocks with the program's own tracing on and off.
func overheadRatio(samples []float64, on []bool) float64 {
	var with, without []float64
	for i, v := range samples {
		if on[i] {
			with = append(with, v)
		} else {
			without = append(without, v)
		}
	}
	if m := median(without); m > 0 {
		return median(with)/m - 1
	}
	return 0
}

// finishEndToEnd derives the end-to-end metrics from the measured blocks:
// each block's median op latency and its rate, both scaled by how slow the
// reference kernel ran in that block, then the median over blocks (a
// median, because one stalled block would move a total); and set-up time,
// scaled by the kernel's slowdown over the whole run. The unscaled numbers
// and the reference itself are reported beside them.
func (b *bench) finishEndToEnd() {
	var lat, rate, rawLat, rawRate, ref []float64
	for _, bl := range b.blocks {
		l, r := median(bl.opMS), float64(bl.ops)/bl.wall.Seconds()
		lat, rate = append(lat, l/bl.latencySlowdown()), append(rate, r*bl.rateSlowdown())
		rawLat, rawRate = append(rawLat, bl.opMS...), append(rawRate, r)
		ref = append(ref, bl.refMS...)
	}
	b.set("op_ms.p50", median(lat))
	b.set("ops_per_s", median(rate))
	b.set("host.op_raw_ms.p50", median(rawLat))
	b.set("host.ops_raw_per_s", median(rawRate))
	// Set-up is seconds of work with nothing to interleave the kernel with
	// (a sampler beside it read 1.75x where the kernel in the loops read
	// 1.5x), so it is scaled by the slowdown of the run it set up.
	slow := mean(unstalled(ref)) / refNominalMS
	b.set("setup_s", b.values["host.setup_raw_s"]/slow)
	b.set("host.ref_ms", mean(unstalled(ref)))
	b.set("host.slowdown", slow)
	b.set("host.stalled_ratio", 1-float64(len(unstalled(ref)))/float64(len(ref)))
}

// newDataRoot picks where this run's DSNs live: tmpfs when the box has
// one (a shared disk's fsync time doubles between back-to-back runs, which
// measures the neighbours, not the program), else the checkout's ignored
// build directory.
func newDataRoot() (dir, fs string, err error) {
	for _, c := range []struct{ base, fs string }{
		{"/dev/shm", "tmpfs"},
		{filepath.Join(checkoutRoot(), ".bench_build", "data"), "disk"},
	} {
		if c.fs == "disk" {
			if err := os.MkdirAll(c.base, 0o755); err != nil {
				return "", "", err
			}
		}
		d, err := os.MkdirTemp(c.base, "coda-e2e-")
		if err == nil {
			return d, c.fs, nil
		}
	}
	return "", "", errors.New("no writable DSN root (/dev/shm or .bench_build/data)")
}

// node is one in-process coda-server: the wiring of cmd/coda-server/main.go
// behind a real loopback listener.
type node struct {
	dir    string
	repo   *darr.Repo
	hs     *store.HomeStore
	kv     *tracedKV // traced pass only
	leases *replication.Manager
	srv    *http.Server
	served chan struct{}
	tr     *http.Transport
	url    string
}

// Server settings of cmd/coda-server's flag defaults, except where the
// workloads say otherwise (coalescing off, fanout workers = GOMAXPROCS).
const (
	claimTTL     = time.Minute
	retain       = 4
	deltaBlock   = 64
	fullFraction = 0.5
)

// boot opens the DSNs under dir (creating or recovering them) and serves.
func (b *bench) boot(dir string) (*node, error) {
	n := &node{dir: dir, served: make(chan struct{})}
	var err error
	n.repo, err = darr.NewDurableRepo("log:"+filepath.Join(dir, "darr"), nil, claimTTL)
	if err != nil {
		return nil, fmt.Errorf("opening durable DARR: %w", err)
	}
	opts := store.Options{Retain: retain, BlockSize: deltaBlock, FullFraction: fullFraction}
	storeDSN := "log:" + filepath.Join(dir, "store")
	var hs store.ObjectStore
	if b.traced {
		kv, err := persist.Open(storeDSN)
		if err != nil {
			return nil, fmt.Errorf("opening object store: %w", err)
		}
		n.kv = &tracedKV{KV: kv, rec: b.rec}
		n.hs, err = store.Open(opts, store.NewKVBackend(n.kv))
		if err != nil {
			return nil, fmt.Errorf("opening object store: %w", err)
		}
		hs = &tracedStore{ObjectStore: n.hs, rec: b.rec}
	} else {
		n.hs, err = store.OpenDSN(storeDSN, opts)
		if err != nil {
			return nil, fmt.Errorf("opening object store: %w", err)
		}
		hs = n.hs
	}
	api := httpapi.NewServer(n.repo, hs)
	n.leases = replication.NewManagerWith(hs, nil, replication.Config{
		Workers:       runtime.GOMAXPROCS(0),
		SweepInterval: 30 * time.Second,
	})
	api.EnableLeases(n.leases)
	var handler http.Handler = api
	if b.traced {
		handler = &tracedHandler{next: api, rec: b.rec}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.srv = &http.Server{Handler: handler, ReadTimeout: 30 * time.Second, WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	go func() {
		defer close(n.served)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	// Two keep-alive connections: the caller's and the SSE stream's.
	n.tr = &http.Transport{MaxIdleConns: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: time.Minute}
	return n, nil
}

// client builds an httpapi.Client the way coda-client does.
func (b *bench) client(n *node, id string) *httpapi.Client {
	c := httpapi.NewClient(n.url, id)
	c.Metric = "rmse"
	var rt http.RoundTripper = n.tr
	if b.traced {
		rt = &tracedTransport{next: n.tr, rec: b.rec}
	}
	c.HTTP = &http.Client{Timeout: httpapi.DefaultRequestTimeout, Transport: rt}
	return c
}

// close stops serving and closes the backends; the DSN directories stay.
func (n *node) close() error {
	n.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n.srv.Shutdown(ctx); err != nil {
		_ = n.srv.Close() // an SSE stream still open: cut it
	}
	<-n.served
	n.leases.Close()
	return errors.Join(n.hs.Close(), n.repo.Close())
}

// percentile reads the pth quantile by nearest rank from unsorted samples.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(samples []float64) float64 { return percentile(samples, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// dirBytes sums the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && fi.Mode().IsRegular() {
			n += fi.Size()
		}
		return nil
	})
	return n
}
