package trace

import (
	"sort"
	"time"
)

// Component labels for the critical-path analyzer. Spans tagged with one
// of these (via SetComponent) claim the wall-clock intervals they cover;
// untagged spans are structural and claim nothing.
const (
	CompCompute   = "compute"    // fold fits, refits, scoring
	CompDARRWait  = "darr_wait"  // DARR lookups, claims, publishes in flight
	CompStoreWait = "store_wait" // object-store pulls/puts in flight
	CompQueue     = "queue"      // waiting for a worker slot
	CompOther     = "other"      // root time covered by no tagged span
)

// Profile attributes one operation's wall time to components. The
// component durations (including Other) sum exactly to Total.
type Profile struct {
	Total      time.Duration
	Components map[string]time.Duration
}

// Component returns the time attributed to one component label.
func (p Profile) Component(name string) time.Duration { return p.Components[name] }

// ComputeProfile sweeps the component-tagged spans across [start, end),
// attributing each instant to the highest-precedence component active
// then, and the uncovered remainder to CompOther. Spans are clipped to
// the window; untagged spans are ignored.
func ComputeProfile(start, end time.Time, spans []SpanData) Profile {
	p := Profile{Components: map[string]time.Duration{}}
	if !end.After(start) {
		return p
	}
	p.Total = end.Sub(start)

	// When tagged spans overlap, the lower rank wins the overlap. Compute
	// outranks the waits because communication only matters to the
	// critical path when nothing is computing; queue ranks last because a
	// queued unit overlapping any real work was not the bottleneck.
	rank := map[string]int{CompCompute: 0, CompDARRWait: 1, CompStoreWait: 2, CompQueue: 3}
	type edge struct {
		at    int64 // ns offset from start
		comp  int
		delta int
	}
	total := int64(p.Total)
	var edges []edge
	for _, s := range spans {
		ri, ok := rank[s.Component]
		if !ok {
			continue
		}
		lo := int64(s.Start.Sub(start))
		hi := int64(s.End.Sub(start))
		if lo < 0 {
			lo = 0
		}
		if hi > total {
			hi = total
		}
		if hi <= lo {
			continue
		}
		edges = append(edges, edge{lo, ri, 1}, edge{hi, ri, -1})
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })

	var active [4]int
	covered := int64(0)
	sums := [4]int64{}
	prev := int64(0)
	i := 0
	for i < len(edges) {
		at := edges[i].at
		if at > prev {
			for c := 0; c < 4; c++ {
				if active[c] > 0 {
					sums[c] += at - prev
					covered += at - prev
					break
				}
			}
			prev = at
		}
		for i < len(edges) && edges[i].at == at {
			active[edges[i].comp] += edges[i].delta
			i++
		}
	}
	for c, name := range []string{CompCompute, CompDARRWait, CompStoreWait, CompQueue} {
		if sums[c] > 0 {
			p.Components[name] = time.Duration(sums[c])
		}
	}
	p.Components[CompOther] = time.Duration(total - covered)
	return p
}

// Profile computes the critical-path breakdown of the span's trace
// fragment so far, using the span's start and the current time as the
// window (call it just before End on the root span). Returns a zero
// profile on a nil span.
func (s *Span) Profile() Profile {
	if s == nil {
		return Profile{}
	}
	s.mu.Lock()
	start := s.data.Start
	s.mu.Unlock()
	spans, _ := s.st.snapshot()
	return ComputeProfile(start, time.Now(), spans)
}
