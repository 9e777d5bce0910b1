package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/obs/trace"
	"coda/internal/replication"
	"coda/internal/store"
	"coda/internal/webservice"
)

// rewindBody is a request body the allocation pin rewinds between runs; a
// pointer, so handing it to the request boxes nothing.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// discardWriter is a ResponseWriter that keeps its header map between runs
// and drops the body.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestServeHTTPLookupAllocs pins what one 4-digest batch lookup allocates
// through the whole chain (request id, route, metrics, body read, handler,
// reply) with tracing off and the log at Info: 13. The chain that named
// each request's route with a path switch and formatted its metric names
// with fmt.Sprintf made 23; it made 18 while ServeHTTP still built its
// request log's arguments and its span's status attribute with Debug and
// tracing off.
func TestServeHTTPLookupAllocs(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	defer trace.SetEnabled(true)
	trace.SetEnabled(false)
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })

	repo := darr.NewRepo(nil, time.Minute)
	keys := []string{"k0", "k1", "k2", "k3"}
	if err := repo.PutBatch([]darr.Record{{Key: keys[0], Score: 1}, {Key: keys[2], Score: 2}}); err != nil {
		t.Fatal(err)
	}
	var digests []byte
	for _, k := range keys {
		d := darr.KeyDigest(k)
		digests = append(digests, d[:]...)
	}
	srv := NewServer(repo, nil)
	req := httptest.NewRequest(http.MethodPost, "/darr/batch/lookup", nil)
	req.Header.Set("Content-Type", octetStream)
	req.Header.Set("X-Coda-Request-Id", "feedfacecafebeef")
	req.ContentLength = int64(len(digests))
	body := new(rewindBody)
	w := &discardWriter{h: http.Header{}}
	lookup := func() {
		body.Reset(digests)
		req.Body = body
		clear(w.h)
		srv.ServeHTTP(w, req)
	}
	lookup()
	if got := w.h.Get("Content-Length"); got != "17" { // a 1-byte bitmap and two scores
		t.Fatalf("lookup reply of %s bytes, want 17", got)
	}
	// The server answers a lookup the same way whatever order a client
	// claims its units in, so the search's dispatch order leaves this at 13.
	if got := testing.AllocsPerRun(50, lookup); got != 13 {
		t.Fatalf("a 4-digest lookup through ServeHTTP allocates %v times, want 13", got)
	}
}

// TestEveryRouteAnswersJSON walks the route table of coda-server's API
// (with leases, and serve's /score mounted as serve mounts it) and of the
// debug listener: a method a route does not serve
// gets a JSON errorReply 405 whose Allow header lists the route's methods,
// counted under the route's label, and a path no route serves gets a JSON
// 404 naming the path, counted under route="other".
func TestEveryRouteAnswersJSON(t *testing.T) {
	logTo(t, io.Discard)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManagerWith(hs, nil, replication.Config{Workers: 1})
	t.Cleanup(m.Close)
	api := NewServer(darr.NewRepo(nil, time.Minute), hs)
	api.EnableLeases(m)
	api.Handle("score", "/score", webservice.Handler(nil), http.MethodPost) // no request here reaches the model
	// answer sends one request and returns its errorReply, failing on a
	// status other than want or a body that is not one.
	answer := func(srv *Server, method, path string, want int) (*httptest.ResponseRecorder, errorReply) {
		t.Helper()
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest(method, path, nil))
		var body errorReply
		if rr.Code != want || rr.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s %s: status %d, Content-Type %q; want a JSON %d", method, path, rr.Code, rr.Header().Get("Content-Type"), want)
		} else if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil || body.Status != want || body.Error == "" {
			t.Errorf("%s %s: body %q is not a %d errorReply (%v)", method, path, rr.Body.String(), want, err)
		}
		return rr, body
	}
	routes := 0
	for _, srv := range []*Server{api, NewDebugServer()} {
		for _, rt := range srv.routes {
			routes++
			path := strings.ReplaceAll(rt.pattern, "{id}", "l1")
			if strings.HasSuffix(path, "/") {
				path += "k"
			}
			for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
				if slices.Contains(rt.methods, method) {
					continue
				}
				ctr := requests(rt.label, method, http.StatusMethodNotAllowed)
				before := ctr.Value()
				rr, _ := answer(srv, method, path, http.StatusMethodNotAllowed)
				if got, want := rr.Header().Get("Allow"), strings.Join(rt.methods, ", "); got != want {
					t.Errorf("%s %s: Allow %q, want %q", method, path, got, want)
				}
				if got := ctr.Value() - before; got != 1 {
					t.Errorf("%s %s: counted %d 405s under route=%q, want 1", method, path, got, rt.label)
				}
			}
		}
	}
	if routes != 24 {
		t.Fatalf("walked %d routes, want the 15 of the API with leases, /score and the 8 of the debug listener", routes)
	}
	for _, path := range []string{"/no/such/route", "/leases/l1/poll", "/darr/batch"} {
		ctr := requests("other", http.MethodGet, http.StatusNotFound)
		before := ctr.Value()
		if _, body := answer(api, http.MethodGet, path, http.StatusNotFound); !strings.Contains(body.Error, path) {
			t.Errorf("GET %s: 404 error %q does not name the path", path, body.Error)
		}
		if got := ctr.Value() - before; got != 1 {
			t.Errorf(`GET %s: counted %d 404s under route="other", want 1`, path, got)
		}
	}
}
