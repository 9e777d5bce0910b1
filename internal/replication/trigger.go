package replication

import "sync"

// UpdateStats summarizes the updates seen since analytics last ran.
type UpdateStats struct {
	Count int   // number of updates
	Bytes int64 // total update payload bytes
}

// Trigger decides when data has changed enough to warrant re-running
// analytics calculations (Section III lists three ways).
type Trigger interface {
	ShouldRecompute(s UpdateStats) bool
}

// CountTrigger fires when the number of updates since the last computation
// exceeds N.
type CountTrigger struct{ N int }

// ShouldRecompute implements Trigger.
func (t CountTrigger) ShouldRecompute(s UpdateStats) bool { return s.Count > t.N }

// BytesTrigger fires when the total size of updates since the last
// computation exceeds N bytes.
type BytesTrigger struct{ N int64 }

// ShouldRecompute implements Trigger.
func (t BytesTrigger) ShouldRecompute(s UpdateStats) bool { return s.Bytes > t.N }

// FuncTrigger applies an application-specific predicate — the paper's
// "best way to determine when to perform updated analytics calculations",
// at the cost of being harder to implement.
type FuncTrigger struct {
	Fn func(s UpdateStats) bool
}

// ShouldRecompute implements Trigger.
func (t FuncTrigger) ShouldRecompute(s UpdateStats) bool { return t.Fn != nil && t.Fn(s) }

// Monitor accumulates update statistics for a data set and answers whether
// the configured trigger has fired; Reset is called after analytics rerun.
type Monitor struct {
	trigger Trigger

	mu         sync.Mutex
	stats      UpdateStats
	recomputes int
}

// NewMonitor wraps a trigger.
func NewMonitor(t Trigger) *Monitor { return &Monitor{trigger: t} }

// ObserveUpdate folds one update into the monitor. A pushed frame is the
// bridge from the lease notification stream to re-analytics triggers, so
// recompute decisions ride the push path instead of polling the store. A
// coalesced frame counts every publish it represents; the change
// magnitude comes from the notification's estimate when present, the
// payload wire size otherwise.
func (m *Monitor) ObserveUpdate(u Update) {
	n := u.Coalesced
	if n < 1 {
		n = 1
	}
	bytes := u.ChangedBytes
	if bytes == 0 && u.Reply != nil {
		bytes = u.Reply.WireBytes()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.Count += n
	m.stats.Bytes += int64(bytes)
}

// Check reports whether analytics should rerun now.
func (m *Monitor) Check() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.trigger.ShouldRecompute(m.stats)
}

// Reset clears the accumulated statistics after a recomputation.
func (m *Monitor) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = UpdateStats{}
	m.recomputes++
}

// Recomputes counts how many times Reset has been called — the recompute
// budget the S3 experiment trades against staleness.
func (m *Monitor) Recomputes() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recomputes
}
