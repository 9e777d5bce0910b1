package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"coda/internal/core"
)

// The host-speed reference.
//
// This benchmark runs on a few vCPUs of a shared host whose speed drifts by
// up to 2x for seconds to minutes at a time (sibling hyperthreads, not
// steal: a fixed arithmetic loop's CPU time moves with its wall time). Ten
// minutes of warm searches cut into 8 s windows gave a quartile spread of
// 17% for the median latency and the same for its 5th percentile: the whole
// distribution scales, so no statistic of the latencies alone is steady.
// Dividing by a fixed kernel of the benchmark's own, timed in between the
// operations, brought that spread to 3-4% (README.md, "Host-speed
// reference").
//
// The kernel is a naive 48x48x48 float64 multiply followed by 400 small
// allocations and map inserts: arithmetic slows more under a busy sibling
// than allocation and branching do, and of the mixes tried this one tracked
// both the compute-bound searches and the syscall-bound warm searches. It
// calls nothing of the program under test, so no change to the program
// moves it.

// refNominalMS is what one run of the kernel takes on the reference box
// when the host is quiet. Reported times are scaled to it: op_ms.p50 is
// the latency on a host that runs the kernel in exactly this time.
const refNominalMS = 0.16

type hostRef struct {
	a, b, c [48][48]float64
	keep    [][]int
	sink    float64
}

func newHostRef() *hostRef {
	h := &hostRef{}
	for i := range h.a {
		for j := range h.a[i] {
			h.a[i][j] = float64(i+j) * 1e-3
			h.b[i][j] = float64(i^j) * 1e-3
		}
	}
	return h
}

// run runs the kernel once and returns how long it took, in ms.
func (h *hostRef) run() float64 {
	t0 := time.Now()
	for i := range h.a {
		for j := range h.b {
			var acc float64
			for k := range h.b {
				acc += h.a[i][k] * h.b[k][j]
			}
			h.c[i][j] = acc
		}
	}
	h.keep = h.keep[:0]
	m := map[int]int{}
	for i := 0; i < 400; i++ {
		h.keep = append(h.keep, make([]int, 4+i%8))
		m[i] = i
	}
	h.sink += h.c[1][1] + float64(len(m))
	return ms(time.Since(t0))
}

// cooperation is what core.Search discovers in a result store by type
// assertion (batching, claim release, flush); a decorator forwards all of
// it so that the search runs the same protocol.
type cooperation interface {
	core.BatchResultStore
	core.Flusher
}

// refResults times the kernel each time core.Search publishes a unit: on
// the worker's own goroutine, between two units, which is as close to
// interleaving as a search that runs for a second allows. Measured over
// 355 cold searches, these samples followed a search's wall time more
// closely than those of a goroutine sampling every 20 ms beside it
// (correlation 0.85 against 0.72).
type refResults struct {
	cooperation

	mu      sync.Mutex
	idle    []*hostRef // one kernel for every publisher at once
	samples []float64
}

func (r *refResults) Publish(ctx context.Context, key string, score float64, explanation string) error {
	r.mu.Lock()
	var h *hostRef
	if n := len(r.idle); n > 0 {
		h, r.idle = r.idle[n-1], r.idle[:n-1]
	}
	r.mu.Unlock()
	if h == nil {
		h = newHostRef()
	}
	v := h.run()
	r.mu.Lock()
	r.idle = append(r.idle, h)
	r.samples = append(r.samples, v)
	r.mu.Unlock()
	return r.cooperation.Publish(ctx, key, score, explanation)
}

// kernelAllocs measures what one run of the kernel allocates, so that a
// search's own allocation counts can be reported without it.
func kernelAllocs() (mallocs, bytes uint64) {
	const runs = 16
	h := newHostRef()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		h.run()
	}
	runtime.ReadMemStats(&m1)
	return (m1.Mallocs - m0.Mallocs) / runs, (m1.TotalAlloc - m0.TotalAlloc) / runs
}

// take returns the samples since the last call.
func (r *refResults) take() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.samples
	r.samples = nil
	return out
}
