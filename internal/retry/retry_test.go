package retry

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"syscall"
	"testing"
	"time"
)

// fakeSleep records requested backoffs without waiting.
type fakeSleep struct {
	mu    sync.Mutex
	slept []time.Duration
}

func (f *fakeSleep) sleep(_ context.Context, d time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.slept = append(f.slept, d)
	return nil
}

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	fs := &fakeSleep{}
	calls := 0
	err := Do(context.Background(), Policy{MaxAttempts: 5, Sleep: fs.sleep}, func(context.Context) error {
		calls++
		if calls < 3 {
			return &StatusError{Status: 503, Method: "GET", Path: "/x"}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if len(fs.slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(fs.slept))
	}
}

func TestDoStopsOnTerminalError(t *testing.T) {
	calls := 0
	terminal := &StatusError{Status: 404, Method: "GET", Path: "/x"}
	err := Do(context.Background(), Policy{MaxAttempts: 5, Sleep: (&fakeSleep{}).sleep}, func(context.Context) error {
		calls++
		return terminal
	})
	if !errors.Is(err, terminal) {
		t.Fatalf("err = %v, want the 404", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (no retry on 4xx)", calls)
	}
}

func TestDoExhaustsAttempts(t *testing.T) {
	calls := 0
	err := Do(context.Background(), Policy{MaxAttempts: 3, Sleep: (&fakeSleep{}).sleep}, func(context.Context) error {
		calls++
		return syscall.ECONNRESET
	})
	if err == nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want failure after 3 attempts", err, calls)
	}
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("final error should wrap the last failure: %v", err)
	}
}

func TestDoRespectsCallerCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	err := Do(ctx, Policy{MaxAttempts: 5, Sleep: (&fakeSleep{}).sleep}, func(context.Context) error {
		calls++
		cancel()
		return syscall.ECONNRESET // transient, but the caller is gone
	})
	if err == nil || calls != 1 {
		t.Fatalf("err=%v calls=%d, want 1 call then stop", err, calls)
	}
}

func TestDoPerAttemptTimeout(t *testing.T) {
	deadlines := 0
	err := Do(context.Background(), Policy{
		MaxAttempts:       3,
		PerAttemptTimeout: time.Millisecond,
		Sleep:             (&fakeSleep{}).sleep,
	}, func(ctx context.Context) error {
		if _, ok := ctx.Deadline(); ok {
			deadlines++
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	if deadlines != 3 {
		t.Fatalf("saw %d attempt deadlines, want 3", deadlines)
	}
}

func TestBackoffScheduleAndJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nominal := []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000}
	for i, n := range nominal {
		base := n * time.Millisecond
		d := backoff(i, rng)
		lo := time.Duration(float64(base) * 0.8)
		hi := time.Duration(float64(base) * 1.2)
		if d < lo || d > hi {
			t.Fatalf("backoff(%d) = %v, want within [%v, %v]", i, d, lo, hi)
		}
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{context.DeadlineExceeded, true},
		{syscall.ECONNRESET, true},
		{syscall.ECONNREFUSED, true},
		{io.ErrUnexpectedEOF, true},
		{io.EOF, true},
		{fmt.Errorf("wrapped: %w", syscall.ECONNRESET), true},
		{&net.OpError{Op: "read", Net: "tcp", Err: syscall.ECONNRESET}, true},
		{&StatusError{Status: 500}, true},
		{&StatusError{Status: 503}, true},
		{&StatusError{Status: 429}, true},
		{&StatusError{Status: 404}, false},
		{&StatusError{Status: 400}, false},
		{errors.New("some app error"), false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
