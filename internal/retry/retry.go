// Package retry is the fault-tolerance layer for client↔cloud traffic:
// exponential backoff with jitter, per-attempt timeouts, error
// classification (transient faults retry, caller mistakes do not). A call
// that still fails after its attempts returns the error, and the layer
// above degrades: core.Search computes the rest of its units locally.
//
// The paper's cooperative searches run over wide-area links between
// client nodes and cloud analytics servers (Figure 1); this package makes
// a flaky WAN look like a slow-but-working one to the layers above.
package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"syscall"
	"time"

	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// Telemetry for the fault-tolerance layer: attempt volume, how often the
// backoff path engages, and abandoned calls. Scraped at /metrics.
var (
	mAttempts       = obs.GetCounter("coda_retry_attempts_total")
	mRetries        = obs.GetCounter("coda_retry_retries_total")
	mGiveups        = obs.GetCounter("coda_retry_giveups_total")
	mBackoffSeconds = obs.GetHistogram("coda_retry_backoff_seconds", nil)
)

// Default policy values. The first three stand in for a zero Policy field.
// Every backoff grows by DefaultMultiplier and is spread by ±DefaultJitter,
// de-synchronizing clients that fail together.
const (
	DefaultMaxAttempts    = 4
	DefaultInitialBackoff = 100 * time.Millisecond
	DefaultMaxBackoff     = 5 * time.Second
	DefaultMultiplier     = 2.0
	DefaultJitter         = 0.2
)

// Policy configures Do. The zero value is usable: every zero field takes
// the package default, and there is no per-attempt timeout.
type Policy struct {
	// MaxAttempts bounds total tries, including the first (default 4).
	// A value of 1 disables retrying.
	MaxAttempts int
	// InitialBackoff is the sleep after the first failure (default 100ms).
	InitialBackoff time.Duration
	// MaxBackoff caps the exponential growth (default 5s).
	MaxBackoff time.Duration
	// PerAttemptTimeout bounds each attempt with its own deadline, so one
	// hung connection cannot eat the whole call budget. Zero means the
	// attempt runs under the caller's context alone.
	PerAttemptTimeout time.Duration
	// Sleep is the backoff clock; nil uses a real timer. Tests inject a
	// recorder to assert the schedule without waiting.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
	}
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = DefaultInitialBackoff
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = DefaultMaxBackoff
	}
	if p.Sleep == nil {
		p.Sleep = sleepCtx
	}
	return p
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Backoff returns the sleep before retry number `retry` (0-based), with
// jitter applied. Exposed for tests and for simulated-network code that
// wants the same schedule.
func (p Policy) Backoff(retry int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := float64(p.InitialBackoff)
	for i := 0; i < retry; i++ {
		d *= DefaultMultiplier
		if d >= float64(p.MaxBackoff) {
			d = float64(p.MaxBackoff)
			break
		}
	}
	if d > float64(p.MaxBackoff) {
		d = float64(p.MaxBackoff)
	}
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		u = rand.Float64()
	}
	// Spread uniformly over [1-DefaultJitter, 1+DefaultJitter].
	d *= 1 + DefaultJitter*(2*u-1)
	return time.Duration(d)
}

// Do runs op until it succeeds, fails terminally, or the policy gives up.
// The context passed to op carries the per-attempt deadline when one is
// configured; op must build its request from that context so cancellation
// propagates into the network layer.
func Do(ctx context.Context, p Policy, op func(ctx context.Context) error) error {
	p = p.withDefaults()
	var err error
	for attempt := 0; attempt < p.MaxAttempts; attempt++ {
		if attempt > 0 {
			backoff := p.Backoff(attempt-1, nil)
			mRetries.Inc()
			mBackoffSeconds.Observe(backoff.Seconds())
			// Retries annotate the surrounding call span, so a trace shows
			// each backoff with its delay instead of a silent gap.
			trace.AddEvent(ctx, "retry",
				trace.Int("attempt", attempt+1), trace.Duration("backoff", backoff))
			if serr := p.Sleep(ctx, backoff); serr != nil {
				return serr
			}
		}
		mAttempts.Inc()
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		attemptCtx, cancel := ctx, context.CancelFunc(func() {})
		if p.PerAttemptTimeout > 0 {
			attemptCtx, cancel = context.WithTimeout(ctx, p.PerAttemptTimeout)
		}
		err = op(attemptCtx)
		cancel()
		if err == nil {
			return nil
		}
		// The caller's own context ending is terminal, even when the
		// surfaced error looks like a transient timeout.
		if cerr := ctx.Err(); cerr != nil {
			return err
		}
		if !Retryable(err) {
			return err
		}
	}
	mGiveups.Inc()
	return fmt.Errorf("retry: %d attempts: %w", p.MaxAttempts, err)
}

// StatusError reports a non-2xx HTTP response. Keeping it here lets the
// classifier see the status code without importing the HTTP client layer.
type StatusError struct {
	Status int
	Method string
	Path   string
}

// Error implements error.
func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: status %d", e.Method, e.Path, e.Status)
}

// RetryableStatus reports whether an HTTP status code indicates a
// transient server-side condition: 5xx and 429 retry; 4xx means the
// request itself is wrong and repeating it cannot help.
func RetryableStatus(code int) bool {
	return code >= 500 || code == http.StatusTooManyRequests
}

// Retryable classifies an error as transient (worth retrying) or
// terminal. Timeouts, connection resets/refusals, broken pipes, truncated
// responses and retryable HTTP statuses are transient; cancellations and
// 4xx statuses are terminal.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true // an attempt deadline, not the caller's cancellation
	}
	var se *StatusError
	if errors.As(err, &se) {
		return RetryableStatus(se.Status)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	switch {
	case errors.Is(err, syscall.ECONNRESET),
		errors.Is(err, syscall.ECONNREFUSED),
		errors.Is(err, syscall.ECONNABORTED),
		errors.Is(err, syscall.EPIPE),
		errors.Is(err, io.EOF),
		errors.Is(err, io.ErrUnexpectedEOF):
		return true
	}
	return false
}
