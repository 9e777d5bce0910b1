package obs

import (
	"encoding/json"
	"net/http"
	"runtime"
	"runtime/debug"
	"time"
)

var startTime = time.Now()

// Uptime reports how long the process has been running.
func Uptime() time.Duration { return time.Since(startTime) }

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
// uptime, build info (Go version, VCS revision) and one snapshot per
// named component. Each fn must be safe for concurrent use and cheap.
func HealthHandler(components map[string]func() any) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		snap := make(map[string]any, len(components))
		for n, fn := range components {
			snap[n] = fn()
		}
		reply := HealthReply{
			Status:        "ok",
			UptimeSeconds: Uptime().Seconds(),
			Build:         BuildInfo(),
			Components:    snap,
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
