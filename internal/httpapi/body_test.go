package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/obs"
	"coda/internal/replication"
	"coda/internal/store"
)

func bodyRejected(route string) int64 {
	return obs.GetCounter(fmt.Sprintf(`coda_http_request_body_rejected_total{route=%q}`, route)).Value()
}

// rawRequest writes head and sent on a fresh connection, half-closes it if
// eof (the server sees the body end, the reply still has a way back) and
// returns the response.
func rawRequest(t *testing.T, addr, head string, sent []byte, eof bool) *http.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(append([]byte(head), sent...)); err != nil {
		t.Fatal(err)
	}
	if eof {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("reading the response: %v", err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestOversizeContentLengthRefusedUnread: a PUT that declares a gigabyte is
// answered 413 from its header alone — nothing is sized from the
// declaration, nothing more of the body is awaited — and is counted.
func TestOversizeContentLengthRefusedUnread(t *testing.T) {
	_, _, hs, ts := newTestServer(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	head := "PUT /store/objects/huge HTTP/1.1\r\nHost: coda\r\nContent-Length: 1073741824\r\n\r\n"
	rejected := bodyRejected("store-objects")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// The client stalls mid-body with the connection open: the reply must
	// not wait for bytes that are not coming.
	resp := rawRequest(t, addr, head, make([]byte, 1024), false)
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("refusing a declared 1 GiB body allocated %d bytes", grew)
	}
	if got := bodyRejected("store-objects") - rejected; got != 1 {
		t.Fatalf("coda_http_request_body_rejected_total{route=\"store-objects\"} grew by %d, want 1", got)
	}
	if _, err := hs.Current("huge"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("refused PUT left an object behind: %v", err)
	}
}

// TestShortBodyIsRejectedWhole: a body that ends before its declared length
// is a 400 and never becomes a version.
func TestShortBodyIsRejectedWhole(t *testing.T) {
	_, _, hs, ts := newTestServer(t)
	addr := strings.TrimPrefix(ts.URL, "http://")
	head := "PUT /store/objects/torn HTTP/1.1\r\nHost: coda\r\nContent-Length: 32768\r\n\r\n"
	resp := rawRequest(t, addr, head, make([]byte, 1024), true)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if _, err := hs.Current("torn"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("short PUT left a version behind: %v", err)
	}
}

// lowCapServer serves with the body cap lowered to limit, so a test can
// cross it without moving 64 MiB.
func lowCapServer(t *testing.T, limit int64) (store.ObjectStore, string) {
	t.Helper()
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	srv := NewServer(darr.NewRepo(nil, time.Minute), hs)
	srv.maxBody = limit
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return hs, ts.URL
}

func TestChunkedBodyStopsAtTheCap(t *testing.T) {
	const limit = 64 << 10
	hs, url := lowCapServer(t, limit)
	put := func(key string, n int) int {
		// A reader of unknown length goes out chunked.
		req, err := http.NewRequest(http.MethodPut, url+"/store/objects/"+key, struct{ io.Reader }{bytes.NewReader(make([]byte, n))})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}
	if code := put("fits", limit); code != http.StatusOK {
		t.Fatalf("chunked body of exactly the cap: status %d, want 200", code)
	}
	if code := put("over", limit+1); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked body one byte over the cap: status %d, want 413", code)
	}
	if v, err := hs.Current("fits"); err != nil || len(v.Data) != limit {
		t.Fatalf("the body at the cap was not stored whole: %d bytes, %v", len(v.Data), err)
	}
	if _, err := hs.Current("over"); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("oversize chunked PUT left an object behind: %v", err)
	}
}

// TestBatchBodyOverTheCapIs413: the batch routes read through the same
// reader, so an oversize body is refused as such, declared or chunked, not
// handed to the digest or JSON decoder to fail on.
func TestBatchBodyOverTheCapIs413(t *testing.T) {
	const limit = 4 << 10
	_, url := lowCapServer(t, limit)
	big := strings.Repeat("k", limit+32)
	for route, contentType := range map[string]string{"lookup": octetStream, "claims": octetStream, "records": "application/json"} {
		rejected := bodyRejected("darr-batch-" + route)
		for name, body := range map[string]io.Reader{
			"declared": strings.NewReader(big),
			"chunked":  struct{ io.Reader }{strings.NewReader(big)},
		} {
			resp, err := http.Post(url+"/darr/batch/"+route, contentType, body)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s, %s body: status %d, want 413", route, name, resp.StatusCode)
			}
		}
		if got := bodyRejected("darr-batch-"+route) - rejected; got != 2 {
			t.Errorf("%s: rejected-body counter grew by %d, want 2", route, got)
		}
	}
}

// TestConcurrentPutsKeepTheirOwnBytes: 200 PUTs in flight through the pooled
// body buffers (and the lease manager, which must not keep the slice) each
// read back exactly what they sent; run under -race.
func TestConcurrentPutsKeepTheirOwnBytes(t *testing.T) {
	c, _, _, _ := newLeaseServer(t, replication.Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	for g := 0; g < 200; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("obj-%d", g)
			data := make([]byte, 32<<10)
			rand.New(rand.NewSource(int64(g))).Read(data)
			if _, err := c.PutObject(ctx, key, data); err != nil {
				t.Errorf("%s: put: %v", key, err)
				return
			}
			rep := store.NewReplica()
			if err := c.PullObject(ctx, rep, key); err != nil {
				t.Errorf("%s: pull: %v", key, err)
				return
			}
			if got, _ := rep.Data(key); !bytes.Equal(got, data) {
				t.Errorf("%s: read back %d bytes that are not the %d sent", key, len(got), len(data))
			}
		}(g)
	}
	wg.Wait()
}
