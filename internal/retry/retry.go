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

// The backoff schedule: InitialBackoff after the first failure, growing by
// Multiplier up to MaxBackoff, each spread by ±Jitter, de-synchronizing
// clients that fail together. DefaultMaxAttempts stands in for a zero
// Policy.MaxAttempts.
const (
	DefaultMaxAttempts = 4
	InitialBackoff     = 100 * time.Millisecond
	MaxBackoff         = 5 * time.Second
	Multiplier         = 2.0
	Jitter             = 0.2
)

// Policy configures Do. The zero value is usable: MaxAttempts takes
// DefaultMaxAttempts, and there is no per-attempt timeout.
type Policy struct {
	// MaxAttempts bounds total tries, including the first (default 4).
	// A value of 1 disables retrying.
	MaxAttempts int
	// PerAttemptTimeout bounds each attempt with its own deadline, so one
	// hung connection cannot eat the whole call budget. Zero means the
	// attempt runs under the caller's context alone.
	PerAttemptTimeout time.Duration
	// Sleep is the backoff clock; nil uses a real timer. Tests inject a
	// recorder to assert the schedule, or a no-op to retry at once.
	Sleep func(ctx context.Context, d time.Duration) error
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = DefaultMaxAttempts
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

// backoff returns the sleep before retry number `retry` (0-based), with
// jitter drawn from rng (the global source when nil).
func backoff(retry int, rng *rand.Rand) time.Duration {
	d := float64(InitialBackoff)
	for i := 0; i < retry && d < float64(MaxBackoff); i++ {
		d *= Multiplier
	}
	d = min(d, float64(MaxBackoff))
	var u float64
	if rng != nil {
		u = rng.Float64()
	} else {
		u = rand.Float64()
	}
	// Spread uniformly over [1-Jitter, 1+Jitter].
	d *= 1 + Jitter*(2*u-1)
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
			wait := backoff(attempt-1, nil)
			mRetries.Inc()
			mBackoffSeconds.Observe(wait.Seconds())
			// Retries annotate the surrounding call span, so a trace shows
			// each backoff with its delay instead of a silent gap.
			trace.AddEvent(ctx, "retry",
				trace.Int("attempt", attempt+1), trace.Duration("backoff", wait))
			if serr := p.Sleep(ctx, wait); serr != nil {
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
