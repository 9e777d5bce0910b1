package httpapi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"coda/internal/delta"
	"coda/internal/retry"
	"coda/internal/store"
)

// recordingTransport keeps the headers of the last response and counts the
// bytes its body delivered.
type recordingTransport struct {
	header http.Header
	body   int64
}

type countedBody struct {
	io.ReadCloser
	n *int64
}

func (b countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	*b.n += int64(n)
	return n, err
}

func (r *recordingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil {
		r.header, r.body = resp.Header, 0
		resp.Body = countedBody{resp.Body, &r.body}
	}
	return resp, err
}

// TestObjectRoutesSpeakBytes pins the object routes' wire form on a real
// server: a PUT answers its version in X-Coda-Version with no body, and a
// full, a delta and an unchanged pull each carry exactly the reply's payload
// bytes as the body with the metadata in X-Coda-* headers.
func TestObjectRoutesSpeakBytes(t *testing.T) {
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	ts := httptest.NewServer(NewServer(nil, hs))
	t.Cleanup(ts.Close)
	rec := &recordingTransport{}
	c := NewClient(ts.URL, "wire")
	c.HTTP = &http.Client{Transport: rec}
	ctx := context.Background()

	v1 := make([]byte, 8192)
	rand.New(rand.NewSource(4)).Read(v1)
	v2 := bytes.Clone(v1)
	v2[100] ^= 0xff
	rep := store.NewReplica()
	for _, step := range []struct {
		put  []byte // nil: pull without a put first
		kind string
	}{{v1, "full"}, {v2, "delta"}, {nil, "unchanged"}} {
		if step.put != nil {
			version, err := c.PutObject(ctx, "obj", step.put)
			if err != nil {
				t.Fatal(err)
			}
			if got := rec.header.Get(versionHeader); got != strconv.FormatUint(version, 10) || rec.body != 0 {
				t.Fatalf("PUT reply: %s %q and a %d-byte body, want %d and none", versionHeader, got, rec.body, version)
			}
		}
		want, err := hs.Get("obj", rep.VersionOf("obj"))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.PullObject(ctx, rep, "obj"); err != nil {
			t.Fatalf("%s pull: %v", step.kind, err)
		}
		wantBody := int64(want.WireBytes())
		if step.kind == "unchanged" {
			wantBody = 0
		}
		wantBase := ""
		if step.kind == "delta" {
			wantBase = strconv.FormatUint(want.BaseVersion, 10)
		}
		h := rec.header
		for name, wantValue := range map[string]string{
			"Content-Type":    "application/octet-stream",
			"Content-Length":  strconv.FormatInt(wantBody, 10),
			versionHeader:     strconv.FormatUint(want.Version, 10),
			replyHeader:       step.kind,
			baseVersionHeader: wantBase,
		} {
			if got := h.Get(name); got != wantValue {
				t.Errorf("%s pull: %s %q, want %q", step.kind, name, got, wantValue)
			}
		}
		if want.Kind() != step.kind || rec.body != wantBody {
			t.Errorf("%s pull: the store answered %s; the body carried %d bytes, want %d",
				step.kind, want.Kind(), rec.body, wantBody)
		}
	}
	cur, err := hs.Current("obj")
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rep.Data("obj"); !bytes.Equal(got, cur.Data) || rep.VersionOf("obj") != cur.Num {
		t.Fatalf("replica holds version %d, not the home copy's %d bytes of version %d", rep.VersionOf("obj"), len(cur.Data), cur.Num)
	}
}

// TestPutBodyIsTheStoredVersion: the store keeps a PUT's body as the new
// version, so the server must never read a later request into that buffer.
// PUT a, then PUT b of the same length, over one keep-alive connection: a
// still reads back as its own bytes. Rounds repeat it, since a recycled
// buffer only comes back when the next request runs on the same P.
func TestPutBodyIsTheStoredVersion(t *testing.T) {
	hs := store.NewHomeStore(store.Options{})
	ts := httptest.NewUnstartedServer(NewServer(nil, hs))
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "owner")
	ctx := context.Background()
	a, b := bytes.Repeat([]byte("A"), 4096), bytes.Repeat([]byte("B"), 4096)
	const rounds = 32
	for i := 0; i < rounds; i++ {
		if _, err := c.PutObject(ctx, fmt.Sprint("a", i), a); err != nil {
			t.Fatal(err)
		}
		if _, err := c.PutObject(ctx, fmt.Sprint("b", i), b); err != nil {
			t.Fatal(err)
		}
	}
	rep := store.NewReplica()
	for i := 0; i < rounds; i++ {
		key := fmt.Sprint("a", i)
		if err := c.PullObject(ctx, rep, key); err != nil {
			t.Fatal(err)
		}
		if got, _ := rep.Data(key); !bytes.Equal(got, a) {
			t.Fatalf("full pull of %s after a PUT of b%d: %.8q..., want %.8q...", key, i, got, a)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("the requests used %d connections, want 1", n)
	}
}

// TestPullRefusesADeltaThatGoesBack: a delta reply whose X-Coda-Version is
// not above its X-Coda-Base-Version fails the pull with both versions
// named, and the replica keeps the version it had.
func TestPullRefusesADeltaThatGoesBack(t *testing.T) {
	base := bytes.Repeat([]byte("coda"), 16)
	payload := delta.Compute(base, base, 16).Marshal()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(replyHeader, "delta")
		w.Header().Set(versionHeader, "1")
		w.Header().Set(baseVersionHeader, "2")
		writeRaw(w, payload)
	}))
	t.Cleanup(ts.Close)
	rep := store.NewReplica()
	if err := rep.ApplyReply(&store.Reply{Key: "obj", Version: 2, Full: base}); err != nil {
		t.Fatal(err)
	}
	received := rep.BytesReceived()
	err := NewClient(ts.URL, "backwards").PullObject(context.Background(), rep, "obj")
	if err == nil || !strings.Contains(err.Error(), "version 1 from base 2") {
		t.Fatalf("pull of a delta from 2 to 1: %v, want a refusal naming both versions", err)
	}
	if rep.VersionOf("obj") != 2 || rep.BytesReceived() != received {
		t.Fatalf("after the refusal the replica is at version %d with %d bytes counted, want 2 and %d",
			rep.VersionOf("obj"), rep.BytesReceived(), received)
	}
}

// TestPullRefusesAReplyWithoutItsKind: a 200 with no X-Coda-Reply — what a
// server answering in JSON sends — fails the pull once, with an error that
// names the header, and is not retried.
func TestPullRefusesAReplyWithoutItsKind(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusOK, map[string]any{"key": "obj", "version": 1, "full": "aGk="})
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, "json-server")
	c.Retry = retry.Policy{MaxAttempts: 4, Sleep: noWait}
	err := c.PullObject(context.Background(), store.NewReplica(), "obj")
	if err == nil || !strings.Contains(err.Error(), replyHeader) {
		t.Fatalf("pull of a JSON reply: %v, want an error naming %s", err, replyHeader)
	}
	if n := hits.Load(); n != 1 {
		t.Fatalf("the server saw %d requests, want 1", n)
	}
}

// TestPullReadsTheBodyByItsLength: a pull reply is read by the length it
// declares. A body cut short is transient and retried; a length over the
// cap is refused at once, before anything is sized from it.
func TestPullReadsTheBodyByItsLength(t *testing.T) {
	// serve answers the nth request with a full reply that declares
	// declared bytes and sends body, then closes the connection.
	serve := func(answer func(n int64) (declared int64, body string)) (*Client, *atomic.Int64) {
		var hits atomic.Int64
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			declared, body := answer(hits.Add(1))
			conn, buf, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\n%s: full\r\n%s: 1\r\nContent-Length: %d\r\n\r\n%s",
				replyHeader, versionHeader, declared, body)
			buf.Flush()
		}))
		t.Cleanup(ts.Close)
		c := NewClient(ts.URL, "length")
		c.Retry = retry.Policy{MaxAttempts: 4, Sleep: noWait}
		return c, &hits
	}
	ctx := context.Background()

	const payload = "0123456789"
	c, hits := serve(func(n int64) (int64, string) {
		if n == 1 {
			return int64(len(payload)), payload[:4]
		}
		return int64(len(payload)), payload
	})
	rep := store.NewReplica()
	if err := c.PullObject(ctx, rep, "obj"); err != nil {
		t.Fatalf("a short body must be retried: %v", err)
	}
	if got, _ := rep.Data("obj"); string(got) != payload || hits.Load() != 2 {
		t.Fatalf("after %d requests the replica holds %q, want %q after 2", hits.Load(), got, payload)
	}

	c, hits = serve(func(int64) (int64, string) { return 1 << 40, payload })
	err := c.PullObject(ctx, store.NewReplica(), "obj")
	if tooLarge := new(http.MaxBytesError); !errors.As(err, &tooLarge) || hits.Load() != 1 {
		t.Fatalf("a declared TiB: %v after %d requests, want one refusal", err, hits.Load())
	}
}

// FuzzObjectReply: readReply never panics. It refuses an unknown reply kind
// and a version it cannot parse; an accepted full reply is the body
// unchanged; an accepted delta applies to a fixed base or fails with
// delta.ErrCorrupt.
func FuzzObjectReply(f *testing.F) {
	base := bytes.Repeat([]byte("coda"), 16)
	f.Fuzz(func(t *testing.T, kind, version, baseVersion string, body []byte) {
		h := http.Header{}
		h.Set(replyHeader, kind)
		h.Set(versionHeader, version)
		h.Set(baseVersionHeader, baseVersion)
		reply, err := readReply("k", h, body)
		v, verr := strconv.ParseUint(version, 10, 64)
		_, berr := strconv.ParseUint(baseVersion, 10, 64)
		switch {
		case kind != "full" && kind != "delta" && kind != "unchanged", verr != nil, kind == "delta" && berr != nil:
			if err == nil {
				t.Fatalf("kind %q, version %q, base %q accepted", kind, version, baseVersion)
			}
			return
		case kind == "delta" && err != nil:
			if !errors.Is(err, delta.ErrCorrupt) {
				t.Fatalf("delta refused with %v, not delta.ErrCorrupt", err)
			}
			return
		case err != nil:
			t.Fatalf("%s reply of version %d refused: %v", kind, v, err)
		}
		if reply.Key != "k" || reply.Version != v || reply.Kind() != kind {
			t.Fatalf("reply %q version %d kind %s, want k, %d, %s", reply.Key, reply.Version, reply.Kind(), v, kind)
		}
		switch kind {
		case "full":
			if !bytes.Equal(reply.Full, body) {
				t.Fatalf("full reply %q is not the body %q", reply.Full, body)
			}
		case "delta":
			if _, err := delta.Apply(base, reply.Delta); err != nil && !errors.Is(err, delta.ErrCorrupt) {
				t.Fatalf("Apply error %v does not wrap delta.ErrCorrupt", err)
			}
		}
	})
}
