package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

var startTime = time.Now()

// Uptime reports how long the process has been running.
func Uptime() time.Duration { return time.Since(startTime) }

var (
	healthMu  sync.Mutex
	healthFns = map[string]func() any{}
)

// RegisterHealth adds a named component snapshot to every health report;
// fn must be safe for concurrent use and cheap. Re-registering a name
// replaces the previous reporter.
func RegisterHealth(name string, fn func() any) {
	healthMu.Lock()
	defer healthMu.Unlock()
	healthFns[name] = fn
}

// HealthSnapshot evaluates every registered reporter.
func HealthSnapshot() map[string]any {
	healthMu.Lock()
	fns := make(map[string]func() any, len(healthFns))
	for n, fn := range healthFns {
		fns[n] = fn
	}
	healthMu.Unlock()
	out := make(map[string]any, len(fns))
	for n, fn := range fns {
		out[n] = fn()
	}
	return out
}

// BuildInfo reports the Go version and, when the binary was built from a
// VCS checkout, the revision and commit time.
func BuildInfo() map[string]string {
	out := map[string]string{"go_version": runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return out
	}
	if bi.Main.Path != "" {
		out["module"] = bi.Main.Path
	}
	if bi.Main.Version != "" {
		out["module_version"] = bi.Main.Version
	}
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			out["vcs_revision"] = s.Value
		case "vcs.time":
			out["vcs_time"] = s.Value
		case "vcs.modified":
			out["vcs_modified"] = s.Value
		}
	}
	return out
}

// HealthReply is the enriched /healthz JSON document.
type HealthReply struct {
	Status        string            `json:"status"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Build         map[string]string `json:"build"`
	Components    map[string]any    `json:"components"`
}

// HealthHandler serves the enriched health report: status, process
// uptime, build info (Go version, VCS revision), the globally registered
// component reporters, and any extra per-server reporters passed in.
func HealthHandler(extra map[string]func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		components := HealthSnapshot()
		for n, fn := range extra {
			components[n] = fn()
		}
		reply := HealthReply{
			Status:        "ok",
			UptimeSeconds: Uptime().Seconds(),
			Build:         BuildInfo(),
			Components:    components,
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(reply)
	})
}

func init() {
	defaultRegistry.Help("coda_uptime_seconds", "Seconds since the process started.")
	defaultRegistry.GaugeFunc("coda_uptime_seconds", func() float64 { return Uptime().Seconds() })
	defaultRegistry.Help("coda_go_goroutines", "Current number of goroutines.")
	defaultRegistry.GaugeFunc("coda_go_goroutines", func() float64 { return float64(runtime.NumGoroutine()) })
}
