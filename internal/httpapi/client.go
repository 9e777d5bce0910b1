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
	"slices"
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
	mCallsOK  = obs.GetCounter(`coda_client_calls_total{outcome="ok"}`)
	mCallsErr = obs.GetCounter(`coda_client_calls_total{outcome="error"}`)
)

// Client talks to a remote coda server. It implements core.ResultStore
// and core.Waiter for cooperative searches and provides versioned object
// sync against the remote home data store. Calls log to slog.Default(),
// each line carrying the request id sent in X-Coda-Request-Id.
//
// All traffic flows through the fault-tolerance layer: transient failures
// (timeouts, connection resets, 5xx) are retried with exponential backoff
// under the configured Policy. A call that still fails returns its error;
// core.Search then stops asking the store and degrades to local
// computation instead of stalling on a dead WAN.
type Client struct {
	BaseURL  string
	ClientID string
	Metric   string
	HTTP     *http.Client
	// Retry governs backoff for transient faults; the zero value uses the
	// retry package defaults. Set MaxAttempts to 1 to disable retrying.
	Retry retry.Policy

	// queue, when enabled, coalesces Publishes into batched uploads.
	queue atomic.Pointer[publishQueue]
	// lastLookup is what the last LookupBatch sent (lookupDigests).
	lastLookup atomic.Pointer[sentDigests]
}

// Default client fault-tolerance settings, chosen for wide-area links:
// a handful of quick retries per call, each bounded by its own timeout.
const (
	DefaultRequestTimeout    = 30 * time.Second
	DefaultPerAttemptTimeout = 10 * time.Second
)

// NewClient builds a client with sane wide-area defaults: 30s overall
// request timeout, 10s per attempt, 4 attempts with jittered exponential
// backoff.
func NewClient(baseURL, clientID string) *Client {
	return &Client{
		BaseURL:  baseURL,
		ClientID: clientID,
		HTTP:     &http.Client{Timeout: DefaultRequestTimeout},
		Retry: retry.Policy{
			PerAttemptTimeout: DefaultPerAttemptTimeout,
		},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// exec runs op through the retry policy p, once per attempt with the
// attempt's context. The context carries the request id sent in
// X-Coda-Request-Id: an ambient id (e.g. one per cooperative search, set
// by the caller) is reused so every call of the operation correlates,
// otherwise a fresh per-call id is generated here.
func (c *Client) exec(ctx context.Context, call string, p retry.Policy, op func(ctx context.Context) error) error {
	ctx, id := obs.EnsureRequestID(ctx)
	// Span names and attributes are built behind the nil checks, so a
	// disabled tracer costs the call no allocation.
	var csp *trace.Span
	if trace.Enabled() {
		ctx, csp = trace.Start(ctx, "client."+call)
		csp.SetComponent(callComponent(call))
		defer csp.End()
	}
	start := time.Now()
	// Each attempt is its own child span so retries show up as repeated
	// attempts under one call, not as separate calls.
	attempts := 0
	err := retry.Do(ctx, p, func(actx context.Context) error {
		attempts++
		actx, asp := trace.Start(actx, "attempt")
		if asp != nil {
			asp.SetAttr(trace.Int("attempt", attempts))
		}
		opErr := op(actx)
		if opErr != nil {
			asp.SetAttr(trace.String("error", opErr.Error()))
		}
		asp.End()
		return opErr
	})
	if csp != nil {
		csp.SetAttr(trace.Int("attempts", attempts))
	}
	if err != nil {
		mCallsErr.Inc()
		csp.SetAttr(trace.String("outcome", "error"))
		slog.Default().Warn("call failed",
			"request_id", id, "call", call, "server", c.BaseURL,
			"elapsed", time.Since(start), "err", err)
		return err
	}
	mCallsOK.Inc()
	// Behind Enabled: the arguments would be boxed even with Debug off.
	if l := slog.Default(); l.Enabled(ctx, slog.LevelDebug) {
		l.Debug("call ok",
			"request_id", id, "call", call, "server", c.BaseURL, "elapsed", time.Since(start))
	}
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

// callLabel trims the query string (a pull's version, a query's dataset
// fingerprint), so one route logs and traces under one label.
func callLabel(method, path string) string {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	return method + " " + path
}

// encodeJSON marshals a request body. Unit keys are full of " -> ", so
// '<', '>' and '&' go out as themselves, not as HTML-safe \u escapes that
// grow every key and that the server must unescape.
func encodeJSON(body any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		return nil, fmt.Errorf("httpapi: encoding request: %w", err)
	}
	return b.Bytes(), nil
}

// doJSON performs one JSON round-trip with retries, decoding a 2xx reply
// into out when it is non-nil. The request body is marshalled once.
func (c *Client) doJSON(ctx context.Context, method, path string, body any, out any) (int, error) {
	var raw []byte
	if body != nil {
		var err error
		if raw, err = encodeJSON(body); err != nil {
			return 0, err
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
	return c.do(ctx, method, path, raw, jsonBody, read)
}

// The headers that describe a request body (a claim's also names its
// client).
var (
	jsonBody  = http.Header{"Content-Type": {"application/json"}}
	octetBody = http.Header{"Content-Type": {octetStream}}
)

// newRequest is how every request the client sends is built: to path on the
// server, carrying ctx's request id (a fresh one when ctx has none) in
// X-Coda-Request-Id and ctx's span in X-Coda-Traceparent.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	ctx, id := obs.EnsureRequestID(ctx)
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, fmt.Errorf("httpapi: building request: %w", err)
	}
	req.Header.Set(obs.RequestIDHeader, id)
	trace.Inject(ctx, req.Header)
	return req, nil
}

// do performs one round trip with retries, replaying raw (nil: no body) as
// the request body of every attempt, described by header. Retryable statuses (5xx, 429) are
// surfaced as errors so the retry layer re-issues the request; other
// statuses are returned to the caller for interpretation. read, when
// non-nil, interprets a 2xx reply; its error fails the attempt, and a
// transient one (a truncated body) is retried.
func (c *Client) do(ctx context.Context, method, path string, raw []byte, header http.Header, read func(*http.Response) error) (int, error) {
	return c.doVia(ctx, c.httpClient(), c.Retry, method, path, raw, header, read)
}

// doVia is do over hc under the retry policy p.
func (c *Client) doVia(ctx context.Context, hc *http.Client, p retry.Policy, method, path string, raw []byte, header http.Header, read func(*http.Response) error) (int, error) {
	var status int
	err := c.exec(ctx, callLabel(method, path), p, func(ctx context.Context) error {
		var rdr io.Reader
		if raw != nil {
			rdr = bytes.NewReader(raw)
		}
		req, err := c.newRequest(ctx, method, path, rdr)
		if err != nil {
			return err
		}
		if raw != nil {
			maps.Copy(req.Header, header)
		}
		resp, err := hc.Do(req)
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

// wantStatus is a round trip's error, or one naming the call when its
// status is not want.
func wantStatus(status int, err error, want int, what string) error {
	if err == nil && status != want {
		err = fmt.Errorf("httpapi: %s status %d", what, status)
	}
	return err
}

// Lookup is LookupBatch over one key.
//
// Deprecated: use LookupBatch; core.Search never calls Lookup.
func (c *Client) Lookup(ctx context.Context, key string) (float64, bool, error) {
	scores, err := c.LookupBatch(ctx, []string{key})
	score, ok := scores[key]
	return score, ok, err
}

// Claim is ClaimBatch over one key.
//
// Deprecated: use ClaimBatch; core.Search never calls Claim.
func (c *Client) Claim(ctx context.Context, key string) (bool, error) {
	granted, err := c.ClaimBatch(ctx, []string{key})
	return granted[key], err
}

// Release implements core.ResultStore: it drops this client's claim on key.
func (c *Client) Release(ctx context.Context, key string) error {
	status, err := c.doJSON(ctx, http.MethodDelete, "/darr/claims", claimRequest{Key: key, ClientID: c.ClientID}, nil)
	return wantStatus(status, err, http.StatusOK, "release")
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
// coalesced POST /darr/batch/records; without one it goes out alone, as a
// batch of one, before Publish returns.
func (c *Client) Publish(ctx context.Context, key string, score float64, explanation string) error {
	rec := c.record(key, score, explanation)
	if q := c.queue.Load(); q != nil {
		q.enqueue(rec)
		return nil
	}
	return c.PublishBatch(ctx, []darr.Record{rec})
}

// batches cuts n keys or records into runs of at most DefaultMaxBatchKeys —
// what a server at its default cap accepts in one request — and calls do
// for each run in order, stopping at the first error. With n == 0 it makes
// no call: an empty batch is answered locally, never sent.
func batches(n int, do func(lo, hi int) error) error {
	for lo := 0; lo < n; lo += DefaultMaxBatchKeys {
		if err := do(lo, min(lo+DefaultMaxBatchKeys, n)); err != nil {
			return err
		}
	}
	return nil
}

// appendDigests appends each key's darr.Digest to dst: a lookup or claim
// body.
func appendDigests(dst []byte, keys []string) []byte {
	for _, k := range keys {
		d := darr.KeyDigest(k)
		dst = append(dst, d[:]...)
	}
	return dst
}

// sentDigests is one LookupBatch's keys, in a slice of its own, and the
// digests it sent for them. It is not changed once stored, so any number
// of calls may read it at once.
type sentDigests struct {
	keys    []string
	digests []byte
}

// lookupDigests is appendDigests for a LookupBatch body. A warm search
// repeats its lookup key for key, so when keys equal the last
// LookupBatch's keys the last body is sent again and nothing is hashed;
// any other batch is hashed whole and kept for the next call. The kept
// keys are the client's own copy, so the body is appendDigests' byte for
// byte whatever the caller did to its slice since. ClaimBatch and Wait
// send other windows of the keys and hash their own.
func (c *Client) lookupDigests(keys []string) []byte {
	if last := c.lastLookup.Load(); last != nil && slices.Equal(last.keys, keys) {
		return last.digests
	}
	body := appendDigests(make([]byte, 0, digestSize*len(keys)), keys)
	c.lastLookup.Store(&sentDigests{keys: slices.Clone(keys), digests: body})
	return body
}

// postDigests posts body, keys' digests, to path with header,
// DefaultMaxBatchKeys to a request, and hands each 200 reply's body to
// read with the bounds of the run it answers. what names the call in an
// error, and shape the reply.
func (c *Client) postDigests(ctx context.Context, path string, header http.Header, what, shape string, keys []string, body []byte, read func(reply []byte, lo, hi int) error) error {
	return batches(len(keys), func(lo, hi int) error {
		status, err := c.do(ctx, http.MethodPost, path, body[lo*digestSize:hi*digestSize], header, func(resp *http.Response) error {
			if ct := resp.Header.Get("Content-Type"); ct != octetStream {
				return fmt.Errorf("httpapi: batch %s reply of type %q, want %s: %s (upgrade servers and clients together)", what, ct, octetStream, shape)
			}
			reply, err := readSized(resp.Body, resp.ContentLength, maxBodyBytes, nil)
			if err != nil {
				// A short body is io.ErrUnexpectedEOF, which the retry layer
				// retries.
				return fmt.Errorf("httpapi: reading batch %s reply: %w", what, err)
			}
			return read(reply, lo, hi)
		})
		return wantStatus(status, err, http.StatusOK, "batch "+what)
	})
}

// Wait implements core.Waiter over the batch wait route: it returns nil
// once the server sees one of keys published, released or past its claim's
// expiry, or once DefaultLongPollWait has passed without that; either way
// the search then claims again. It watches the first DefaultMaxBatchKeys
// keys only, so a search waiting on more is woken by a change among those
// or by the wait running out. It is one request, held by the server, and
// it bypasses the client's overall timeout as StreamLease does. A server
// without the route is an error naming it; core.Search then waits on its
// timer for that round.
func (c *Client) Wait(ctx context.Context, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	const path = "/darr/batch/wait"
	body := appendDigests(nil, keys[:min(len(keys), DefaultMaxBatchKeys)])
	status, err := c.doVia(ctx, c.streamClient(), c.longPollPolicy(DefaultLongPollWait), http.MethodPost,
		path+"?wait="+DefaultLongPollWait.String(), body, octetBody, nil)
	switch {
	case err != nil:
		return err
	case status == http.StatusOK, status == http.StatusNoContent:
		return nil
	case status == http.StatusNotFound:
		return fmt.Errorf("httpapi: the server has no %s route (upgrade servers and clients together)", path)
	default:
		return fmt.Errorf("httpapi: batch wait status %d", status)
	}
}

// LookupBatch implements core.ResultStore: one POST per
// DefaultMaxBatchKeys keys resolves the published scores for every key.
func (c *Client) LookupBatch(ctx context.Context, keys []string) (map[string]float64, error) {
	scores := make(map[string]float64, len(keys))
	err := c.postDigests(ctx, "/darr/batch/lookup", octetBody, "lookup", lookupReplyShape, keys, c.lookupDigests(keys), func(reply []byte, lo, hi int) error {
		return readScores(reply, hi-lo, func(i int, score float64) { scores[keys[lo+i]] = score })
	})
	if err != nil {
		return nil, err
	}
	return scores, nil
}

// ClaimBatch implements core.ResultStore: one POST per
// DefaultMaxBatchKeys keys claims every key this client wants to compute.
// Claims are idempotent per client, so a retried batch whose response was
// lost is safe.
func (c *Client) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	granted := make(map[string]bool, len(keys))
	header := http.Header{"Content-Type": {octetStream}, clientIDHeader: {c.ClientID}}
	body := appendDigests(make([]byte, 0, digestSize*len(keys)), keys)
	err := c.postDigests(ctx, "/darr/batch/claims", header, "claim", claimReplyShape, keys, body, func(reply []byte, lo, hi int) error {
		return readGrants(reply, hi-lo, func(i int, g bool) { granted[keys[lo+i]] = g })
	})
	if err != nil {
		return nil, err
	}
	return granted, nil
}

// PublishBatch uploads many records, DefaultMaxBatchKeys to a request.
// Records are keyed, so retries overwrite rather than duplicate.
func (c *Client) PublishBatch(ctx context.Context, recs []darr.Record) error {
	return batches(len(recs), func(lo, hi int) error {
		status, err := c.doJSON(ctx, http.MethodPost, "/darr/batch/records", batchRecordsRequest{Records: recs[lo:hi]}, nil)
		return wantStatus(status, err, http.StatusCreated, "batch publish")
	})
}

// QueryByDataset lists the remote DARR's records for a dataset fingerprint.
func (c *Client) QueryByDataset(ctx context.Context, fp string) ([]darr.Record, error) {
	var recs []darr.Record
	status, err := c.doJSON(ctx, http.MethodGet, "/darr/records?dataset="+url.QueryEscape(fp), nil, &recs)
	if err = wantStatus(status, err, http.StatusOK, "query"); err != nil {
		return nil, err
	}
	return recs, nil
}

// PutObject uploads a new version of an object to the remote home store.
// Note that a retried put whose lost response had committed assigns a new
// (identical-content) version; readers converge either way.
func (c *Client) PutObject(ctx context.Context, key string, data []byte) (uint64, error) {
	var version uint64
	status, err := c.do(ctx, http.MethodPut, "/store/objects/"+url.PathEscape(key), data, octetBody,
		func(resp *http.Response) (err error) {
			version, err = versionIn(resp.Header, versionHeader)
			return err
		})
	if err = wantStatus(status, err, http.StatusOK, "put"); err != nil {
		return 0, err
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
	status, err := c.do(ctx, http.MethodGet, path, nil, nil, func(resp *http.Response) error {
		body, err := readSized(resp.Body, resp.ContentLength, maxBodyBytes, nil)
		if err != nil {
			return fmt.Errorf("httpapi: reading pull reply: %w", err)
		}
		reply, err = readReply(key, resp.Header, body)
		return err
	})
	if err == nil && status == http.StatusNotFound {
		return fmt.Errorf("%w: %q", store.ErrNotFound, key)
	}
	if err = wantStatus(status, err, http.StatusOK, "pull"); err != nil {
		return err
	}
	// The delta-vs-full split is the data tier's whole bandwidth story;
	// surface it on every pull span.
	sp.SetAttr(trace.String("kind", reply.Kind()),
		trace.Int("wire_bytes", reply.WireBytes()),
		trace.Int64("version", int64(reply.Version)))
	return rep.ApplyReply(reply)
}
