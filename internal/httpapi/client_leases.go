package httpapi

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"coda/internal/retry"
	"coda/internal/store"
)

// ErrLeaseGone reports that the server no longer knows the lease —
// expired, swept, or cancelled. The remedy is a fresh Subscribe, not a
// retry.
var ErrLeaseGone = errors.New("httpapi: lease gone")

// Reply converts a payload-carrying notification (value/delta mode) back
// into a store.Reply, ready for store.Replica.ApplyReply. Notify-mode
// frames have no payload; applying them is a client-side pull decision.
func (n *Notification) Reply() (*store.Reply, error) {
	return decodeReply(objectReply{
		Key: n.Key, Version: n.Version, BaseVersion: n.BaseVersion,
		Unchanged: n.Unchanged, Full: n.Full, Delta: n.Delta,
	})
}

// Subscribe takes a lease on key with the given push mode ("value",
// "delta", or "notify") and TTL. haveVersion seeds the acknowledged
// version (0 = nothing held) so delta pushes start from the replica's
// state. The lease is granted server-side; stream it next.
func (c *Client) Subscribe(ctx context.Context, key, mode string, ttl time.Duration, haveVersion uint64) (*LeaseInfo, error) {
	req := leaseRequest{Key: key, ClientID: c.ClientID, Mode: mode,
		TTLSeconds: ttl.Seconds(), HaveVersion: haveVersion}
	var info LeaseInfo
	status, err := c.doJSON(ctx, http.MethodPost, "/leases", req, &info)
	if err = wantStatus(status, err, http.StatusCreated, "subscribe"); err != nil {
		return nil, err
	}
	return &info, nil
}

// RenewLease extends a lease by ttl from now.
func (c *Client) RenewLease(ctx context.Context, leaseID string, ttl time.Duration) (*LeaseInfo, error) {
	var info LeaseInfo
	status, err := c.doJSON(ctx, http.MethodPost, "/leases/"+url.PathEscape(leaseID)+"/renew",
		renewRequest{TTLSeconds: ttl.Seconds()}, &info)
	if err = wantStatus(status, err, http.StatusOK, "renew"); err != nil {
		return nil, err
	}
	return &info, nil
}

// AckLease tells the server which version this client now holds, so
// delta pushes and change estimates are computed against it.
func (c *Client) AckLease(ctx context.Context, leaseID string, version uint64) error {
	status, err := c.doJSON(ctx, http.MethodPost, "/leases/"+url.PathEscape(leaseID)+"/ack",
		ackRequest{Version: version}, nil)
	return wantStatus(status, err, http.StatusOK, "ack")
}

// CancelLease ends a lease early, as clients should when they no longer
// need updates.
func (c *Client) CancelLease(ctx context.Context, leaseID string) error {
	status, err := c.doJSON(ctx, http.MethodDelete, "/leases/"+url.PathEscape(leaseID), nil, nil)
	return wantStatus(status, err, http.StatusOK, "cancel")
}

// StreamLease opens the lease's SSE stream and invokes fn for every
// update frame until the context is cancelled, the server ends the
// stream (lease expired or cancelled — returned as ErrLeaseGone), or fn
// returns an error (returned as-is). A stream that closes without the
// server's end frame (coda-server restarted or went away) is an error
// wrapping io.ErrUnexpectedEOF, unless ctx ended first. The stream
// bypasses the client's request timeout and retry policy: a subscription
// is a long-lived connection, and re-subscribing after a drop is the
// caller's loop.
func (c *Client) StreamLease(ctx context.Context, leaseID string, fn func(Notification) error) error {
	req, err := c.newRequest(ctx, http.MethodGet, "/leases/"+url.PathEscape(leaseID)+"/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := c.streamClient().Do(req)
	if err != nil {
		return fmt.Errorf("httpapi: opening lease stream: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusGone:
		return fmt.Errorf("%w: %s (status %d)", ErrLeaseGone, leaseID, resp.StatusCode)
	default:
		return fmt.Errorf("httpapi: stream status %d", resp.StatusCode)
	}

	var stop error // the frame that ended the stream: fn's error or the end event
	err = readSSE(resp.Body, maxSSEFrame, func(event, data string) error {
		switch event {
		case "update":
			var n Notification
			if err := json.Unmarshal([]byte(data), &n); err != nil {
				stop = fmt.Errorf("httpapi: decoding update frame: %w", err)
			} else {
				stop = fn(n)
			}
		case "end":
			stop = ErrLeaseGone
		}
		return stop
	})
	if stop == nil && ctx.Err() != nil {
		// The transport cut the body because ctx ended.
		return ctx.Err()
	}
	return err
}

// readSSE reads a server-sent event stream from r and calls dispatch at
// every blank line with the last event and data fields seen since the
// previous one, each with its surrounding space trimmed. Comment lines
// (":") and other fields are skipped. It returns dispatch's first error
// as-is; otherwise the stream must go on until a frame stops it, so its
// end is an error wrapping io.ErrUnexpectedEOF, and a read error or a line
// of maxLine bytes or more is an error too.
func readSSE(r io.Reader, maxLine int, dispatch func(event, data string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, min(64<<10, maxLine)), maxLine)
	var event, data string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			ev, payload := event, data
			event, data = "", ""
			if err := dispatch(ev, payload); err != nil {
				return err
			}
		case strings.HasPrefix(line, ":"):
			// Heartbeat comment.
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data:"))
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("httpapi: reading lease stream: %w", err)
	}
	return fmt.Errorf("httpapi: lease stream closed without an end frame: %w", io.ErrUnexpectedEOF)
}

// maxSSEFrame bounds one SSE line; value-mode frames carry whole objects
// in base64.
const maxSSEFrame = 16 << 20

// streamClient derives an HTTP client with no overall timeout from the
// configured one: lease streams and the DARR wait hold connections open far
// past any sane request deadline.
func (c *Client) streamClient() *http.Client {
	return &http.Client{Transport: c.httpClient().Transport}
}

// longPollPolicy is the retry policy of a long poll the server holds for
// up to wait: each attempt's deadline is the per-attempt budget on top of
// the wait.
func (c *Client) longPollPolicy(wait time.Duration) retry.Policy {
	p := c.Retry
	if p.PerAttemptTimeout > 0 && wait > 0 {
		p.PerAttemptTimeout += wait
	}
	return p
}
