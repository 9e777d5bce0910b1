package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"coda/internal/darr"
	"coda/internal/obs"
	"coda/internal/obs/trace"
	"coda/internal/retry"
	"coda/internal/store"
)

// Client-call telemetry: logical calls (after retries) by outcome.
var (
	mCallsOK   = obs.GetCounter(`coda_client_calls_total{outcome="ok"}`)
	mCallsErr  = obs.GetCounter(`coda_client_calls_total{outcome="error"}`)
	mCallsOpen = obs.GetCounter(`coda_client_calls_total{outcome="breaker_open"}`)
)

// Client talks to a remote coda server. It implements core.ResultStore for
// cooperative searches and provides versioned object sync against the
// remote home data store.
//
// All traffic flows through the fault-tolerance layer: transient failures
// (timeouts, connection resets, 5xx) are retried with exponential backoff
// under the configured Policy, and an optional circuit breaker fails fast
// after consecutive failures so callers — core.Search in particular — can
// degrade to local computation instead of stalling on a dead WAN.
type Client struct {
	BaseURL  string
	ClientID string
	Metric   string
	HTTP     *http.Client
	// Retry governs backoff for transient faults; the zero value uses the
	// retry package defaults. Set MaxAttempts to 1 to disable retrying.
	Retry retry.Policy
	// Breaker, when non-nil, short-circuits calls after consecutive
	// failures. NewClient installs one; build a Client literal without it
	// for always-try behavior.
	Breaker *retry.Breaker
	// Logger receives per-call debug logs and failure warnings, each
	// carrying the request id sent to the server in X-Coda-Request-Id.
	// Nil uses slog.Default().
	Logger *slog.Logger

	// queue, when enabled, coalesces Publishes into batched uploads.
	queue atomic.Pointer[publishQueue]
}

// Default client fault-tolerance settings, chosen for wide-area links:
// a handful of quick retries per call, and a breaker that trips after a
// burst of failed calls then probes again a few seconds later.
const (
	DefaultRequestTimeout    = 30 * time.Second
	DefaultPerAttemptTimeout = 10 * time.Second
	DefaultBreakerThreshold  = 5
	DefaultBreakerCooldown   = 5 * time.Second
)

// NewClient builds a client with sane wide-area defaults: 30s overall
// request timeout, 10s per attempt, 4 attempts with jittered exponential
// backoff, and a circuit breaker (trips after 5 consecutive failed calls,
// probes again after 5s).
func NewClient(baseURL, clientID string) *Client {
	breaker := retry.NewBreaker(DefaultBreakerThreshold, DefaultBreakerCooldown, nil)
	retry.RegisterBreaker(baseURL, breaker)
	return &Client{
		BaseURL:  baseURL,
		ClientID: clientID,
		HTTP:     &http.Client{Timeout: DefaultRequestTimeout},
		Retry: retry.Policy{
			PerAttemptTimeout: DefaultPerAttemptTimeout,
		},
		Breaker: breaker,
	}
}

func (c *Client) logger() *slog.Logger {
	if c.Logger != nil {
		return c.Logger
	}
	return slog.Default()
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// exec runs op through the breaker and retry policy. op runs once per
// attempt with the attempt's context. The context carries the request id
// sent in X-Coda-Request-Id: an ambient id (e.g. one per cooperative
// search, set by the caller) is reused so every call of the operation
// correlates, otherwise a fresh per-call id is generated here.
func (c *Client) exec(ctx context.Context, call string, op func(ctx context.Context) error) error {
	ctx, id := obs.EnsureRequestID(ctx)
	ctx, csp := trace.Start(ctx, "client."+call)
	csp.SetComponent(callComponent(call))
	defer csp.End()
	start := time.Now()
	if c.Breaker != nil && !c.Breaker.Allow() {
		mCallsOpen.Inc()
		csp.SetAttr(trace.String("outcome", "breaker_open"))
		c.logger().Warn("call short-circuited: breaker open",
			"request_id", id, "call", call, "server", c.BaseURL)
		return fmt.Errorf("httpapi: %s: %w", c.BaseURL, retry.ErrOpen)
	}
	// Each attempt is its own child span so retries show up as repeated
	// attempts under one call, not as separate calls.
	attempts := 0
	err := retry.Do(ctx, c.Retry, func(actx context.Context) error {
		attempts++
		actx, asp := trace.Start(actx, "attempt", trace.Int("attempt", attempts))
		opErr := op(actx)
		if opErr != nil {
			asp.SetAttr(trace.String("error", opErr.Error()))
		}
		asp.End()
		return opErr
	})
	if c.Breaker != nil {
		c.Breaker.Record(err)
	}
	csp.SetAttr(trace.Int("attempts", attempts))
	if err != nil {
		mCallsErr.Inc()
		csp.SetAttr(trace.String("outcome", "error"))
		c.logger().Warn("call failed",
			"request_id", id, "call", call, "server", c.BaseURL,
			"elapsed", time.Since(start), "err", err)
		return err
	}
	mCallsOK.Inc()
	c.logger().Debug("call ok",
		"request_id", id, "call", call, "server", c.BaseURL, "elapsed", time.Since(start))
	return nil
}

// callComponent classifies a client call for the critical-path profile
// by the subsystem it waits on.
func callComponent(call string) string {
	if strings.Contains(call, "/darr") {
		return trace.CompDARRWait
	}
	if strings.Contains(call, "/store") {
		return trace.CompStoreWait
	}
	return ""
}

// callLabel trims query parameters (which carry whole unit keys) so logs
// stay readable.
func callLabel(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	return method + " " + path
}

// doJSON performs one JSON round-trip with retries, decoding a 2xx reply
// into out when it is non-nil. The request body is marshalled once.
func (c *Client) doJSON(ctx context.Context, method, path string, body any, out any) (int, error) {
	var raw []byte
	if body != nil {
		var err error
		raw, err = json.Marshal(body)
		if err != nil {
			return 0, fmt.Errorf("httpapi: encoding request: %w", err)
		}
	}
	var read func(*http.Response) error
	if out != nil {
		read = func(resp *http.Response) error {
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				// A truncated body reads as io.ErrUnexpectedEOF, which the
				// retry layer classifies as transient.
				return fmt.Errorf("httpapi: decoding response: %w", err)
			}
			return nil
		}
	}
	return c.do(ctx, method, path, raw, "application/json", read)
}

// do performs one round trip with retries, replaying raw (nil: no body) as
// the request body of every attempt. Retryable statuses (5xx, 429) are
// surfaced as errors so the retry layer re-issues the request; other
// statuses are returned to the caller for interpretation. read, when
// non-nil, interprets a 2xx reply; its error fails the attempt, and a
// transient one (a truncated body) is retried.
func (c *Client) do(ctx context.Context, method, path string, raw []byte, contentType string, read func(*http.Response) error) (int, error) {
	var status int
	err := c.exec(ctx, callLabel(method, path), func(ctx context.Context) error {
		var rdr io.Reader
		if raw != nil {
			rdr = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rdr)
		if err != nil {
			return fmt.Errorf("httpapi: building request: %w", err)
		}
		req.Header.Set(obs.RequestIDHeader, obs.RequestID(ctx))
		trace.Inject(ctx, req.Header)
		if raw != nil {
			req.Header.Set("Content-Type", contentType)
		}
		resp, err := c.httpClient().Do(req)
		if err != nil {
			return fmt.Errorf("httpapi: %s %s: %w", method, path, err)
		}
		// Whatever the attempt leaves unread — a reply nobody decodes, a
		// non-2xx body, the bytes after the JSON value — is drained (up to
		// a bound) before the close: net/http only returns a connection to
		// the pool once its body has been read to EOF.
		defer func() {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
			resp.Body.Close()
		}()
		trace.Annotate(ctx, trace.Int("status", resp.StatusCode))
		if retry.RetryableStatus(resp.StatusCode) {
			return &retry.StatusError{Status: resp.StatusCode, Method: method, Path: path}
		}
		if read != nil && resp.StatusCode < 300 {
			if err := read(resp); err != nil {
				return err
			}
		}
		status = resp.StatusCode
		return nil
	})
	if err != nil {
		return 0, err
	}
	return status, nil
}

// Lookup implements core.ResultStore.
func (c *Client) Lookup(ctx context.Context, key string) (float64, bool, error) {
	var rec darr.Record
	status, err := c.doJSON(ctx, http.MethodGet, "/darr/records?key="+url.QueryEscape(key), nil, &rec)
	if err != nil {
		return 0, false, err
	}
	if status == http.StatusNotFound {
		return 0, false, nil
	}
	if status != http.StatusOK {
		return 0, false, fmt.Errorf("httpapi: lookup status %d", status)
	}
	return rec.Score, true, nil
}

// Claim implements core.ResultStore. Claims are idempotent per client, so
// retrying a claim whose response was lost is safe.
func (c *Client) Claim(ctx context.Context, key string) (bool, error) {
	var out struct {
		Granted bool `json:"granted"`
	}
	status, err := c.doJSON(ctx, http.MethodPost, "/darr/claims", claimRequest{Key: key, ClientID: c.ClientID}, &out)
	if err != nil {
		return false, err
	}
	if status != http.StatusOK {
		return false, fmt.Errorf("httpapi: claim status %d", status)
	}
	return out.Granted, nil
}

// Release drops this client's claim on key.
func (c *Client) Release(ctx context.Context, key string) error {
	status, err := c.doJSON(ctx, http.MethodDelete, "/darr/claims", claimRequest{Key: key, ClientID: c.ClientID}, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("httpapi: release status %d", status)
	}
	return nil
}

// record builds the wire Record for one unit key, parsing the
// structured fields out of the key.
func (c *Client) record(key string, score float64, explanation string) darr.Record {
	fp, spec, eval := darr.SplitKey(key)
	return darr.Record{
		Key: key, DatasetFP: fp, PipelineSpec: spec, EvalSpec: eval,
		Metric: c.Metric, Score: score, Explanation: explanation, ClientID: c.ClientID,
	}
}

// Publish implements core.ResultStore. Records are keyed, so a retried
// publish overwrites itself rather than duplicating. With a publish
// queue enabled (EnablePublishQueue) the record is enqueued for a
// coalesced POST /darr/batch/records instead of a per-unit round trip.
func (c *Client) Publish(ctx context.Context, key string, score float64, explanation string) error {
	rec := c.record(key, score, explanation)
	if q := c.queue.Load(); q != nil {
		q.enqueue(rec)
		return nil
	}
	status, err := c.doJSON(ctx, http.MethodPost, "/darr/records", rec, nil)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("httpapi: publish status %d", status)
	}
	return nil
}

// batches cuts n keys or records into runs of at most DefaultMaxBatchKeys —
// what a server at its default cap accepts in one request — and calls do
// for each run in order, stopping at the first error. With n == 0 it
// calls do once with the empty run, so the server's refusal of an empty
// batch still reaches the caller. A server started with a smaller
// -batch-max-keys refuses runs this size with a 400.
func batches(n int, do func(lo, hi int) error) error {
	for lo := 0; ; lo += DefaultMaxBatchKeys {
		hi := min(lo+DefaultMaxBatchKeys, n)
		if err := do(lo, hi); err != nil || hi == n {
			return err
		}
	}
}

// merged adds one run's reply to the answer so far and returns the answer,
// never nil: the first run's map is the answer itself.
func merged[V any](answer, reply map[string]V) map[string]V {
	switch {
	case answer != nil:
		maps.Copy(answer, reply)
		return answer
	case reply != nil:
		return reply
	}
	return map[string]V{}
}

// LookupBatch implements core.BatchResultStore: one POST per
// DefaultMaxBatchKeys keys resolves the published scores for every key.
func (c *Client) LookupBatch(ctx context.Context, keys []string) (map[string]float64, error) {
	var scores map[string]float64
	err := batches(len(keys), func(lo, hi int) error {
		var out batchLookupReply
		status, err := c.doJSON(ctx, http.MethodPost, "/darr/batch/lookup", batchLookupRequest{Keys: keys[lo:hi]}, &out)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("httpapi: batch lookup status %d", status)
		}
		scores = merged(scores, out.Scores)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// ClaimBatch implements core.BatchResultStore: one POST per
// DefaultMaxBatchKeys keys claims every key this client wants to compute.
// Like Claim, it is idempotent per client, so a retried batch whose
// response was lost is safe.
func (c *Client) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	var granted map[string]bool
	err := batches(len(keys), func(lo, hi int) error {
		var out batchClaimReply
		status, err := c.doJSON(ctx, http.MethodPost, "/darr/batch/claims", batchClaimRequest{Keys: keys[lo:hi], ClientID: c.ClientID}, &out)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("httpapi: batch claim status %d", status)
		}
		granted = merged(granted, out.Granted)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return granted, nil
}

// PublishBatch uploads many records, DefaultMaxBatchKeys to a request.
// Records are keyed, so retries overwrite rather than duplicate.
func (c *Client) PublishBatch(ctx context.Context, recs []darr.Record) error {
	if len(recs) == 0 {
		return nil
	}
	return batches(len(recs), func(lo, hi int) error {
		status, err := c.doJSON(ctx, http.MethodPost, "/darr/batch/records", batchRecordsRequest{Records: recs[lo:hi]}, nil)
		if err != nil {
			return err
		}
		if status != http.StatusCreated {
			return fmt.Errorf("httpapi: batch publish status %d", status)
		}
		return nil
	})
}

// QueryByDataset lists the remote DARR's records for a dataset fingerprint.
func (c *Client) QueryByDataset(ctx context.Context, fp string) ([]darr.Record, error) {
	var recs []darr.Record
	status, err := c.doJSON(ctx, http.MethodGet, "/darr/records?dataset="+url.QueryEscape(fp), nil, &recs)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("httpapi: query status %d", status)
	}
	return recs, nil
}

// PutObject uploads a new version of an object to the remote home store.
// Note that a retried put whose lost response had committed assigns a new
// (identical-content) version; readers converge either way.
func (c *Client) PutObject(ctx context.Context, key string, data []byte) (uint64, error) {
	var version uint64
	status, err := c.do(ctx, http.MethodPut, "/store/objects/"+url.PathEscape(key), data, "application/octet-stream",
		func(resp *http.Response) (err error) {
			version, err = versionIn(resp.Header, versionHeader)
			return err
		})
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("httpapi: put status %d", status)
	}
	return version, nil
}

// PullObject synchronizes one object into the replica, sending the
// replica's current version so the server can answer with a delta. The
// version is read once: every attempt asks for the same reply, and nothing
// is applied until one of them has read its body whole.
func (c *Client) PullObject(ctx context.Context, rep *store.Replica, key string) error {
	have := rep.VersionOf(key)
	ctx, sp := trace.Start(ctx, "store.pull",
		trace.String("key", key), trace.Int64("have", int64(have)))
	sp.SetComponent(trace.CompStoreWait)
	defer sp.End()
	var reply *store.Reply
	path := fmt.Sprintf("/store/objects/%s?have=%d", url.PathEscape(key), have)
	status, err := c.do(ctx, http.MethodGet, path, nil, "", func(resp *http.Response) error {
		body, err := readSized(resp.Body, resp.ContentLength, maxBodyBytes, nil)
		if err != nil {
			return fmt.Errorf("httpapi: reading pull reply: %w", err)
		}
		reply, err = readReply(key, resp.Header, body)
		return err
	})
	if err != nil {
		return err
	}
	if status == http.StatusNotFound {
		return fmt.Errorf("%w: %q", store.ErrNotFound, key)
	}
	if status != http.StatusOK {
		return fmt.Errorf("httpapi: pull status %d", status)
	}
	// The delta-vs-full split is the data tier's whole bandwidth story;
	// surface it on every pull span.
	sp.SetAttr(trace.String("kind", reply.Kind()),
		trace.Int("wire_bytes", reply.WireBytes()),
		trace.Int64("version", int64(reply.Version)))
	return rep.ApplyReply(reply)
}
