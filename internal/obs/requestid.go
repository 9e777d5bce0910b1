package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"math/rand"
	"sync"
	"time"
)

// RequestIDHeader carries the request id between cooperative nodes so
// one logical operation — a whole cooperative search, or a single DARR
// call — can be followed across client and server logs.
const RequestIDHeader = "X-Coda-Request-Id"

type requestIDKey struct{}

var (
	fallbackMu  sync.Mutex
	fallbackRng = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// NewRequestID returns a 16-hex-char random id.
func NewRequestID() string {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		fallbackMu.Lock()
		fallbackRng.Read(b[:])
		fallbackMu.Unlock()
	}
	return hex.EncodeToString(b[:])
}

// WithRequestID stashes id in the context.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestID returns the context's request id, or "" when none is set.
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// EnsureRequestID returns the context's request id, generating and
// attaching a fresh one when absent.
func EnsureRequestID(ctx context.Context) (context.Context, string) {
	if id := RequestID(ctx); id != "" {
		return ctx, id
	}
	id := NewRequestID()
	return WithRequestID(ctx, id), id
}
