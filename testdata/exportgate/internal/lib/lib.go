// Package lib is the fixture's internal package: each method is a case of
// TestReachabilityRules.
package lib

// Store is called through for Get only.
type Store interface {
	Get(key string) string
	Snapshot() error
}

// Mem implements Store and flusher.
type Mem struct{}

// Get implements Store.
func (Mem) Get(key string) string { return key }

// Snapshot implements Store.
func (Mem) Snapshot() error { return nil }

// Flush implements flusher.
func (Mem) Flush() {}

func (Mem) tag() {}

// flusher has an unexported method, so only lib's types implement it.
type flusher interface {
	Flush()
	tag()
}

// Drain flushes x when it is a flusher.
func Drain(x any) {
	if f, ok := x.(flusher); ok {
		f.Flush()
	}
}

// Counter's Read shares its name with io.Reader's, not its signature.
type Counter struct{ n int }

// Read returns the count.
func (c *Counter) Read() int { return c.n }

// String implements fmt.Stringer.
func (c *Counter) String() string { return "counter" }
