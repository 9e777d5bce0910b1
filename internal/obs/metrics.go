package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The registry follows the get-or-create-by-name idiom: a series name is
// a Prometheus family name with optional literal labels, e.g.
//
//	coda_darr_hits_total
//	coda_darr_claims_total{granted="true"}
//
// Callers hold on to the returned metric and update it with atomic
// operations; the registry lock is only taken on first creation and at
// scrape time.

// DurationBuckets is the default histogram bucket layout for latencies,
// in seconds, spanning sub-millisecond pipeline units to multi-second
// WAN calls.
var DurationBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing integer metric with an atomic
// hot path.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (which must be non-negative to keep Prometheus semantics).
func (c *Counter) Add(n int64) {
	if disabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric; when built by GaugeFunc it instead
// reads a callback at scrape time.
type Gauge struct {
	fn   func() float64
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if disabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d.
func (g *Gauge) Add(d float64) {
	if disabled.Load() {
		return
	}
	atomicAddFloat(&g.bits, d)
}

// Value returns the current value (calling the callback for GaugeFunc
// gauges).
func (g *Gauge) Value() float64 {
	if g.fn != nil {
		return g.fn()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket distribution with atomic observation. It
// renders as a standard Prometheus histogram (_bucket/_sum/_count).
type Histogram struct {
	upper  []float64 // ascending bucket upper bounds, +Inf implicit
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if disabled.Load() {
		return
	}
	h.counts[sort.SearchFloat64s(h.upper, v)].Add(1)
	atomicAddFloat(&h.sum, v)
}

// ObserveAll records a batch of values, touching the shared counters once
// per run of same-bucket values instead of once per value — for hot loops
// that would otherwise trade the histogram's cache lines between CPUs.
func (h *Histogram) ObserveAll(vs []float64) {
	if disabled.Load() || len(vs) == 0 {
		return
	}
	var sum float64
	bucket, run := sort.SearchFloat64s(h.upper, vs[0]), uint64(0)
	for _, v := range vs {
		if b := sort.SearchFloat64s(h.upper, v); b != bucket {
			h.counts[bucket].Add(run)
			bucket, run = b, 0
		}
		run++
		sum += v
	}
	h.counts[bucket].Add(run)
	atomicAddFloat(&h.sum, sum)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

func atomicAddFloat(bits *atomic.Uint64, d float64) {
	for {
		old := bits.Load()
		if bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Registry holds named metrics and renders them in Prometheus text
// format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	families map[string]kind
	help     map[string]string
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		families: map[string]kind{},
		help:     map[string]string{},
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// defaultRegistry is the process-wide registry that GetCounter, GetGauge
// and GetHistogram operate on and MetricsHandler serves.
var defaultRegistry = NewRegistry()

// Counter returns the counter registered under name, creating it on
// first use. It panics if name is malformed or already registered as a
// different metric kind — both programmer errors.
func (r *Registry) Counter(name string) *Counter {
	family, _ := splitSeries(name)
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.counters[name]; c != nil {
		return c
	}
	r.claimFamily(family, kindCounter)
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the settable gauge registered under name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	family, _ := splitSeries(name)
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g := r.gauges[name]; g != nil {
		return g
	}
	r.claimFamily(family, kindGauge)
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge whose value is read from fn at scrape
// time; it panics if the series already exists.
func (r *Registry) GaugeFunc(name string, fn func() float64) *Gauge {
	family, _ := splitSeries(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gauges[name]; ok {
		panic(fmt.Sprintf("obs: gauge %q already registered", name))
	}
	r.claimFamily(family, kindGauge)
	g := &Gauge{fn: fn}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// with the given ascending bucket upper bounds (nil means
// DurationBuckets). Buckets are fixed at creation; later calls reuse the
// existing histogram regardless of the buckets argument.
func (r *Registry) Histogram(name string, buckets []float64) *Histogram {
	family, _ := splitSeries(name)
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.hists[name]; h != nil {
		return h
	}
	if buckets == nil {
		buckets = DurationBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q buckets not ascending: %v", name, buckets))
		}
	}
	r.claimFamily(family, kindHistogram)
	h = &Histogram{upper: buckets, counts: make([]atomic.Uint64, len(buckets)+1)}
	r.hists[name] = h
	return h
}

// Help attaches a HELP string to a metric family, emitted on scrape.
func (r *Registry) Help(family, text string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.help[family] = text
}

// claimFamily records the kind of a family; caller holds the write lock.
func (r *Registry) claimFamily(family string, k kind) {
	if have, ok := r.families[family]; ok && have != k {
		panic(fmt.Sprintf("obs: metric family %q registered as both %s and %s", family, have, k))
	}
	r.families[family] = k
}

// splitSeries validates a series name and returns its family and literal
// label block (without braces; empty when unlabeled).
func splitSeries(name string) (family, labels string) {
	i := -1
	for j := 0; j < len(name); j++ {
		if name[j] == '{' {
			i = j
			break
		}
	}
	if i == -1 {
		mustValidFamily(name)
		return name, ""
	}
	if i == 0 || name[len(name)-1] != '}' || i+2 > len(name)-1 {
		panic(fmt.Sprintf("obs: malformed series name %q", name))
	}
	family = name[:i]
	mustValidFamily(family)
	return family, name[i+1 : len(name)-1]
}

func mustValidFamily(s string) {
	if s == "" {
		panic("obs: empty metric name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			panic(fmt.Sprintf("obs: invalid metric name %q", s))
		}
	}
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format (version 0.0.4), families sorted by name and series
// sorted within each family.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	families := make([]string, 0, len(r.families))
	for f := range r.families {
		families = append(families, f)
	}
	sort.Strings(families)
	series := map[string][]string{} // family -> series names
	collect := func(name string) {
		f, _ := splitSeries(name)
		series[f] = append(series[f], name)
	}
	for name := range r.counters {
		collect(name)
	}
	for name := range r.gauges {
		collect(name)
	}
	for name := range r.hists {
		collect(name)
	}
	kinds := make(map[string]kind, len(r.families))
	for f, k := range r.families {
		kinds[f] = k
	}
	help := make(map[string]string, len(r.help))
	for f, h := range r.help {
		help[f] = h
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.RUnlock()

	for _, f := range families {
		if h := help[f]; h != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f, h)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f, kinds[f])
		names := series[f]
		sort.Strings(names)
		for _, name := range names {
			switch kinds[f] {
			case kindCounter:
				fmt.Fprintf(w, "%s %d\n", name, counters[name].Value())
			case kindGauge:
				fmt.Fprintf(w, "%s %s\n", name, formatFloat(gauges[name].Value()))
			case kindHistogram:
				writeHistogram(w, name, hists[name])
			}
		}
	}
}

func writeHistogram(w io.Writer, name string, h *Histogram) {
	family, labels := splitSeries(name)
	bucket := func(le string, cum uint64) {
		if labels == "" {
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", family, le, cum)
		} else {
			fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", family, labels, le, cum)
		}
	}
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		bucket(formatFloat(ub), cum)
	}
	cum += h.counts[len(h.upper)].Load()
	bucket("+Inf", cum)
	suffix := func(s string) string {
		if labels == "" {
			return family + s
		}
		return family + s + "{" + labels + "}"
	}
	fmt.Fprintf(w, "%s %s\n", suffix("_sum"), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s %d\n", suffix("_count"), cum)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Handler serves the registry as a Prometheus scrape endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Package-level helpers against the default registry.

// GetCounter returns (creating if needed) a counter in the default
// registry.
func GetCounter(name string) *Counter { return defaultRegistry.Counter(name) }

// GetGauge returns a settable gauge in the default registry.
func GetGauge(name string) *Gauge { return defaultRegistry.Gauge(name) }

// GetHistogram returns a histogram in the default registry (nil buckets
// mean DurationBuckets).
func GetHistogram(name string, buckets []float64) *Histogram {
	return defaultRegistry.Histogram(name, buckets)
}

// WritePrometheus renders the default registry.
func WritePrometheus(w io.Writer) { defaultRegistry.WritePrometheus(w) }

// MetricsHandler serves the default registry at a scrape endpoint.
func MetricsHandler() http.Handler { return defaultRegistry.Handler() }
