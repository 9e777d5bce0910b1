package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/mlmodels"
	"coda/internal/obs"
	"coda/internal/replication"
	"coda/internal/store"
	"coda/internal/webservice"
)

// The handler chain every listener runs — coda-server's API, serve's
// /score, the -debug-addr listeners — checked on routes mounted with
// Handle, the way serve mounts /score.

// chainServer is a Server with no DARR and no store that serves h for GET
// at /score, labelled as serve mounts it; the test's log is discarded, so
// intended panics print no stacks.
func chainServer(t *testing.T, h http.HandlerFunc) *Server {
	logTo(t, io.Discard)
	srv := NewServer(nil, nil)
	srv.Handle("score", "/score", h, http.MethodGet)
	return srv
}

// requests is the per-route request counter for one route, method and code.
func requests(route, method string, code int) *obs.Counter {
	return obs.GetCounter(fmt.Sprintf(`coda_http_requests_total{route=%q,method=%q,code="%d"}`, route, method, code))
}

// TestRouteLabel: each path's request lands in the scrape under its
// route's label — a subtree route's label for any path under it, and
// "other" for a path no route serves.
func TestRouteLabel(t *testing.T) {
	logTo(t, io.Discard)
	hs := store.NewHomeStore(store.Options{BlockSize: 64})
	m := replication.NewManagerWith(hs, nil, replication.Config{Workers: 1})
	t.Cleanup(m.Close)
	api := NewServer(darr.NewRepo(nil, time.Minute), hs)
	api.EnableLeases(m)
	api.Handle("score", "/score", http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), http.MethodGet)
	debug := NewDebugServer()
	for _, c := range []struct {
		srv        *Server
		path, want string
	}{
		{api, "/score", "score"},
		{debug, "/debug/pprof/", "pprof"},
		{debug, "/debug/pprof/heap", "pprof"},
		{api, "/debug/traces", "traces"},
		{api, "/metrics", "metrics"},
		{api, "/store/objects/a/b", "store-objects"},
		{api, "/leases/l1/stream", "lease-stream"},
		{api, "/darr/batch/wait", "darr-batch-wait"},
		{api, "/", "other"},
		{api, "/score/extra", "other"},
		{api, "/with space", "other"},
		{api, "/" + strings.Repeat("x", 40), "other"},
	} {
		before := scrapedCount(t, c.want)
		req := httptest.NewRequest(http.MethodGet, "/", nil)
		req.URL.Path = c.path
		c.srv.ServeHTTP(httptest.NewRecorder(), req)
		if got := scrapedCount(t, c.want) - before; got != 1 {
			t.Errorf("GET %q: the scrape's %s count grew by %d, want 1", c.path, c.want, got)
		}
	}
}

// scrapedCount is the request count the scrape shows for a route.
func scrapedCount(t *testing.T, route string) int {
	t.Helper()
	var buf bytes.Buffer
	obs.WritePrometheus(&buf)
	prefix := `coda_http_request_seconds_count{route="` + route + `"} `
	for _, line := range strings.Split(buf.String(), "\n") {
		if n, ok := strings.CutPrefix(line, prefix); ok {
			v, err := strconv.Atoi(n)
			if err != nil {
				t.Fatalf("scrape line %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

// TestServerCapturesStatus: the status a handler writes is the one the
// client gets and the one the request is counted under, and the response
// echoes a request id.
func TestServerCapturesStatus(t *testing.T) {
	srv := chainServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	ctr := requests("score", "GET", http.StatusTeapot)
	before := ctr.Value()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/score", nil))
	if rr.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rr.Code)
	}
	if rr.Header().Get(obs.RequestIDHeader) == "" {
		t.Error("response missing request id header")
	}
	if got := ctr.Value() - before; got != 1 {
		t.Errorf("code=418 counter grew by %d, want 1", got)
	}
}

// TestServerStatusFirstWriteWins: the first status a handler commits is
// the one the client gets and the one the request is counted under; a late
// second WriteHeader relabels nothing.
func TestServerStatusFirstWriteWins(t *testing.T) {
	srv := chainServer(t, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.WriteHeader(http.StatusOK)
	})
	teapot, ok := requests("score", "GET", http.StatusTeapot), requests("score", "GET", http.StatusOK)
	beforeTeapot, beforeOK := teapot.Value(), ok.Value()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/score", nil))
	if rr.Code != http.StatusTeapot {
		t.Fatalf("status = %d, want 418", rr.Code)
	}
	if got := teapot.Value() - beforeTeapot; got != 1 {
		t.Errorf("code=418 counter grew by %d, want 1", got)
	}
	if got := ok.Value() - beforeOK; got != 0 {
		t.Errorf("the late WriteHeader(200) relabelled the request: code=200 counter grew by %d", got)
	}
}

// TestServerImplicit200: a handler that only writes a body is counted 200.
func TestServerImplicit200(t *testing.T) {
	srv := chainServer(t, func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "ok")
	})
	ctr := requests("score", "GET", http.StatusOK)
	before := ctr.Value()
	srv.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/score", nil))
	if got := ctr.Value() - before; got != 1 {
		t.Errorf("implicit 200 counter grew by %d, want 1", got)
	}
}

// TestHandledRoutePanicIs500: a mounted handler's panic costs one request:
// a structured 500 carrying the request id, counted as a panic and as a 500
// on its route.
func TestHandledRoutePanicIs500(t *testing.T) {
	srv := chainServer(t, func(w http.ResponseWriter, r *http.Request) {
		panic("kaboom")
	})
	panics, ctr := obs.GetCounter("coda_http_panics_total"), requests("score", "GET", http.StatusInternalServerError)
	beforePanics, before := panics.Value(), ctr.Value()
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/score", nil))
	if rr.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rr.Code)
	}
	var body errorReply
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("500 body is not JSON: %v (%q)", err, rr.Body.String())
	}
	if body.Error != "internal server error" || body.Status != 500 || body.RequestID != rr.Header().Get(obs.RequestIDHeader) {
		t.Errorf("body = %+v, echoed id %q", body, rr.Header().Get(obs.RequestIDHeader))
	}
	if got := panics.Value() - beforePanics; got != 1 {
		t.Errorf("coda_http_panics_total grew by %d, want 1", got)
	}
	if got := ctr.Value() - before; got != 1 {
		t.Errorf("recovered 500 counted %d times on its route, want 1", got)
	}
}

// TestPanicLeavesCommittedResponseAlone: once a status is on its way, a
// panic writes nothing more: the client gets the committed status and
// whatever body the handler wrote, and the request is counted under that
// status.
func TestPanicLeavesCommittedResponseAlone(t *testing.T) {
	for name, written := range map[string]string{"body": "partial", "header-only": ""} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(chainServer(t, func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(http.StatusAccepted)
				if written != "" {
					fmt.Fprint(w, written)
				}
				panic("late panic")
			}))
			defer ts.Close()
			accepted, failed := requests("score", "GET", http.StatusAccepted), requests("score", "GET", http.StatusInternalServerError)
			beforeAccepted, beforeFailed := accepted.Value(), failed.Value()
			resp, err := http.Get(ts.URL + "/score")
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("status = %d, want the committed 202", resp.StatusCode)
			}
			if string(got) != written {
				t.Errorf("body = %q, want %q: recovery must not write into a committed response", got, written)
			}
			if a, f := accepted.Value()-beforeAccepted, failed.Value()-beforeFailed; a != 1 || f != 0 {
				t.Errorf("counted %d as 202 and %d as 500, want 1 and 0", a, f)
			}
		})
	}
}

// TestRequestIDPropagation: the caller's X-Coda-Request-Id reaches the
// handler's context, is echoed on the response and lands in the server
// log; without one the chain generates an id.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	seen := make(chan string, 1)
	srv := chainServer(t, func(w http.ResponseWriter, r *http.Request) {
		seen <- obs.RequestID(r.Context())
		w.WriteHeader(http.StatusNoContent)
	})
	logTo(t, &logBuf)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/score", nil)
	req.Header.Set(obs.RequestIDHeader, "feedfacecafebeef")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := <-seen; got != "feedfacecafebeef" {
		t.Fatalf("handler saw id %q", got)
	}
	if got := resp.Header.Get(obs.RequestIDHeader); got != "feedfacecafebeef" {
		t.Fatalf("echoed id %q", got)
	}
	if !strings.Contains(logBuf.String(), "request_id=feedfacecafebeef") {
		t.Fatalf("server log missing id:\n%s", logBuf.String())
	}

	resp, err = http.Get(ts.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got, handler := resp.Header.Get(obs.RequestIDHeader), <-seen; len(got) != 16 || got != handler {
		t.Fatalf("generated id: echoed %q, handler saw %q", got, handler)
	}
}

// TestDebugServerServesPprofAndMetrics: the -debug-addr listener answers
// pprof, the scrape, the health report and the trace ring, and its pprof
// requests are counted but leave no trace behind.
func TestDebugServerServesPprofAndMetrics(t *testing.T) {
	rec := swapTraceRecorder(t, 16)
	ts := httptest.NewServer(NewDebugServer())
	defer ts.Close()
	pprofGets := requests("pprof", "GET", http.StatusOK)
	before := pprofGets.Value()
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/metrics", "/healthz", "/debug/traces"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", path, resp.StatusCode, len(body))
		}
	}
	if got := pprofGets.Value() - before; got != 2 {
		t.Errorf(`route="pprof" counted %d GETs, want 2`, got)
	}
	if n := rec.Len(); n != 0 {
		t.Errorf("the debug routes left %d traces in the ring, want none", n)
	}
}

// TestScoreBodyOverTheCapIs413: /score reads its body behind the chain's
// cap, so a body over it, declared or chunked, is a 413 and not an
// unbounded decode; a body under it is scored.
func TestScoreBodyOverTheCapIs413(t *testing.T) {
	const limit = 1 << 10
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 40, Features: 2, Informative: 2, Noise: 0.1}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	model := mlmodels.NewLinearRegression()
	if err := model.Fit(ds); err != nil {
		t.Fatal(err)
	}
	logTo(t, io.Discard)
	srv := NewServer(nil, nil)
	srv.maxBody = limit
	srv.Handle("score", "/score", webservice.Handler(model), http.MethodPost)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	post := func(body io.Reader) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/score", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	if code, body := post(strings.NewReader(`{"rows": [[1, 2], [3, 4]]}`)); code != http.StatusOK || !strings.Contains(body, `"predictions"`) {
		t.Fatalf("a body under the cap: status %d, %s", code, body)
	}
	tooLarge := requests("score", "POST", http.StatusRequestEntityTooLarge)
	before := tooLarge.Value()
	big := `{"rows": [[` + strings.Repeat("1, ", limit) + `1]]}`
	for name, body := range map[string]io.Reader{
		"declared": strings.NewReader(big),
		"chunked":  struct{ io.Reader }{bytes.NewReader([]byte(big))},
	} {
		code, reply := post(body)
		if code != http.StatusRequestEntityTooLarge || !strings.Contains(reply, `"status":413`) {
			t.Errorf("%s body over the cap: status %d, %s; want a JSON 413", name, code, reply)
		}
	}
	if got := tooLarge.Value() - before; got != 2 {
		t.Errorf(`route="score" counted %d 413s, want 2`, got)
	}
}
