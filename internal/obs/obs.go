// Package obs is the observability layer for the cooperative analytics
// stack: structured logging (log/slog), a dependency-free metrics
// registry exposed in Prometheus text format, request-id tracing that
// follows a cooperative search from client to server, and process health
// reporting. The HTTP chain that serves them is httpapi.Server's, on every
// listener. Everything here is stdlib-only so it can be imported from any
// layer (darr, store, retry, core, httpapi) without creating dependency
// cycles or pulling in third-party modules.
//
// The package is deliberately distinct from internal/metrics, which
// implements ML scoring metrics (RMSE, accuracy, ...); obs measures the
// system, internal/metrics measures the models.
package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
)

// disabled flips the whole metrics hot path off; the zero value means
// enabled. Kept package-global so instrumented code pays one atomic load
// when telemetry is off (see BenchmarkObsOverhead).
var disabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide. Logging is
// unaffected; use the slog level for that.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether metric collection is on.
func Enabled() bool { return !disabled.Load() }

// ParseLevel maps a flag value to a slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q (want debug|info|warn|error)", s)
	}
}

// NewLogger builds a slog logger writing to w in the given format
// ("text" or "json") at the given level.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	switch strings.ToLower(strings.TrimSpace(format)) {
	case "text", "":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want text|json)", format)
	}
}

// SetupDefaultLogger configures the process-wide slog default from flag
// values: level is debug|info|warn|error, format is text|json. Output
// goes to stderr so stdout stays clean for command results.
func SetupDefaultLogger(level, format string) error {
	lv, err := ParseLevel(level)
	if err != nil {
		return err
	}
	logger, err := NewLogger(os.Stderr, lv, format)
	if err != nil {
		return err
	}
	slog.SetDefault(logger)
	return nil
}
