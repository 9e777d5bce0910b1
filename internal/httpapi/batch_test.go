package httpapi

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// clientFor serves a hand-built Server (e.g. with a lowered maxBatchKeys)
// and returns a client wired to it.
func clientFor(t *testing.T, srv *Server) (*Client, *httptest.Server) {
	t.Helper()
	ts := httptest.NewServer(srv)
	return NewClient(ts.URL, "test-client"), ts
}

// The deprecated one-key Lookup and Claim keep Client a
// core.BatchResultStore, which bench/e2e's store decorators still name.
var (
	_ core.BatchResultStore = (*Client)(nil)
	_ core.Flusher          = (*Client)(nil)
)

func TestBatchEndpointsRoundTrip(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()
	keys := []string{"fp|s1|e", "fp|s2|e", "fp|s3|e"}

	scores, err := c.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 0 {
		t.Fatalf("LookupBatch on empty repo = %v, %v", scores, err)
	}
	granted, err := c.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if !granted[k] {
			t.Fatalf("claim for %q denied on empty repo: %v", k, granted)
		}
	}
	// A second client is denied all three in one round trip.
	c2 := NewClient(c.BaseURL, "rival")
	denied, err := c2.ClaimBatch(ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if denied[k] {
			t.Fatalf("rival stole claim for %q", k)
		}
	}

	recs := make([]darr.Record, len(keys))
	for i, k := range keys {
		recs[i] = darr.Record{Key: k, DatasetFP: "fp", Score: float64(i)}
	}
	if err := c.PublishBatch(ctx, recs); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 3 || repo.ActiveClaims() != 0 {
		t.Fatalf("records=%d claims=%d after batch publish", repo.Len(), repo.ActiveClaims())
	}
	scores, err = c2.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 3 || scores[keys[2]] != 2 {
		t.Fatalf("LookupBatch after publish = %v, %v", scores, err)
	}
}

func TestBatchEndpointRejectsOversizedAndEmpty(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	srv := NewServer(repo, nil)
	srv.maxBatchKeys = 2
	c, ts := clientFor(t, srv)
	defer ts.Close()
	ctx := context.Background()

	if _, err := c.LookupBatch(ctx, []string{"a", "b", "c"}); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("oversized batch error = %v, want 400", err)
	}
	if _, err := c.ClaimBatch(ctx, []string{"a", "b", "c"}); err == nil {
		t.Fatal("oversized claim batch must be rejected")
	}
	// client_id is required for claims.
	anon := NewClient(c.BaseURL, "")
	if _, err := anon.ClaimBatch(ctx, []string{"a"}); err == nil || !strings.Contains(err.Error(), "status 400") {
		t.Fatalf("claim batch without a client id: %v, want 400", err)
	}
	// The server refuses an empty batch (the client never sends one), a body
	// that is not whole digests, and the JSON key lists of clients before
	// digests, naming the shape it wants.
	for _, path := range []string{"/darr/batch/lookup", "/darr/batch/claims"} {
		for _, tc := range []struct {
			name, contentType, body string
			status                  int
		}{
			{"empty", octetStream, "", http.StatusBadRequest},
			{"31 bytes", octetStream, strings.Repeat("k", 31), http.StatusBadRequest},
			{"33 bytes", octetStream, strings.Repeat("k", 33), http.StatusBadRequest},
			{"JSON", "application/json", `{"keys":["a"],"client_id":"c"}`, http.StatusUnsupportedMediaType},
		} {
			req, _ := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			req.Header.Set(clientIDHeader, "c")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			var e errorReply
			_ = json.NewDecoder(resp.Body).Decode(&e)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Errorf("%s body to %s answered %d, want %d", tc.name, path, resp.StatusCode, tc.status)
			}
			if tc.status == http.StatusUnsupportedMediaType &&
				(!strings.Contains(e.Error, digestsShape) || !strings.Contains(e.Error, "upgrade servers and clients together")) {
				t.Errorf("JSON body to %s: error %q names neither the shape nor the upgrade", path, e.Error)
			}
		}
	}
}

// TestResultStoresAgreeOnBatchSizes: the in-process and the HTTP DARR
// client give the same answers to the same batches — none, one key, and
// one key past a request's cap — and the HTTP client answers an empty
// batch itself, with an empty map and no request.
func TestResultStoresAgreeOnBatchSizes(t *testing.T) {
	ctx := context.Background()
	keyset := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("fp|k%d|e", i)
		}
		return keys
	}
	for _, keys := range [][]string{nil, keyset(1), keyset(DefaultMaxBatchKeys + 1)} {
		var answers [2]struct {
			scores  map[string]float64
			granted map[string]bool
		}
		var requests atomic.Int32
		for i, name := range []string{"darr.Client", "httpapi.Client"} {
			repo := darr.NewRepo(nil, time.Minute)
			// Every other key is published; a peer holds the first one, if
			// it is not.
			var recs []darr.Record
			for j := 1; j < len(keys); j += 2 {
				recs = append(recs, darr.Record{Key: keys[j], Score: float64(j)})
			}
			if err := repo.PutBatch(recs); err != nil {
				t.Fatal(err)
			}
			repo.ClaimBatch(keys[:min(1, len(keys))], "peer")
			var st core.ResultStore = &darr.Client{Repo: repo, ClientID: "me"}
			if name == "httpapi.Client" {
				api := NewServer(repo, nil)
				ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					requests.Add(1)
					api.ServeHTTP(w, r)
				}))
				defer ts.Close()
				st = NewClient(ts.URL, "me")
			}
			a := &answers[i]
			var err error
			if a.scores, err = st.LookupBatch(ctx, keys); err != nil {
				t.Fatalf("%s: %d keys: LookupBatch: %v", name, len(keys), err)
			}
			if a.granted, err = st.ClaimBatch(ctx, keys); err != nil {
				t.Fatalf("%s: %d keys: ClaimBatch: %v", name, len(keys), err)
			}
			if a.scores == nil || a.granted == nil || len(a.scores) != len(recs) || len(a.granted) != len(keys) {
				t.Fatalf("%s: %d keys: %d scores and %d claim decisions (nil: %v), want %d and %d",
					name, len(keys), len(a.scores), len(a.granted), a.scores == nil || a.granted == nil, len(recs), len(keys))
			}
		}
		if !maps.Equal(answers[0].scores, answers[1].scores) || !maps.Equal(answers[0].granted, answers[1].granted) {
			t.Errorf("%d keys: the two clients disagree:\n in-process %+v\n HTTP       %+v", len(keys), answers[0], answers[1])
		}
		want := int32(0)
		if len(keys) > 0 {
			want = 2 * int32((len(keys)+DefaultMaxBatchKeys-1)/DefaultMaxBatchKeys)
		}
		if got := requests.Load(); got != want {
			t.Errorf("%d keys: the HTTP client sent %d requests, want %d", len(keys), got, want)
		}
	}
}

// TestBatchCallsSplitAtTheServerCap: a batch larger than the server's
// default cap goes out as several requests and comes back as one answer
// (it was one request, a 400, and a search that silently stopped
// cooperating), so a grid of more than 1024 units still runs the
// cooperation protocol.
func TestBatchCallsSplitAtTheServerCap(t *testing.T) {
	repo := darr.NewRepo(nil, time.Minute)
	var lookups, claims, publishes atomic.Int32
	api := NewServer(repo, nil)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/darr/batch/lookup":
			lookups.Add(1)
		case "/darr/batch/claims":
			claims.Add(1)
		case "/darr/batch/records":
			publishes.Add(1)
		}
		api.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "big")
	ctx := context.Background()

	keys := make([]string, 2500)
	recs := make([]darr.Record, len(keys))
	for i := range keys {
		keys[i] = core.UnitKey("fp", fmt.Sprintf("input -> noop -> linreg(alpha=%d)", i), "kfold(k=3)|rmse|seed=1")
		recs[i] = c.record(keys[i], float64(i), "")
	}
	granted, err := c.ClaimBatch(ctx, keys)
	if err != nil || len(granted) != len(keys) || claims.Load() != 3 {
		t.Errorf("ClaimBatch over %d keys: %d decisions in %d requests, err %v; want all in 3", len(keys), len(granted), claims.Load(), err)
	}
	if err := c.PublishBatch(ctx, recs); err != nil || publishes.Load() != 3 || repo.Len() != len(keys) {
		t.Errorf("PublishBatch over %d records: %d stored in %d requests, err %v; want all in 3", len(recs), repo.Len(), publishes.Load(), err)
	}
	scores, err := c.LookupBatch(ctx, keys)
	if err != nil || lookups.Load() != 3 {
		t.Errorf("LookupBatch over %d keys: %d requests, err %v; want 3", len(keys), lookups.Load(), err)
	}
	for i, k := range keys {
		if got, ok := scores[k]; !ok || got != float64(i) {
			t.Errorf("key %d: score %v present %v, want %d", i, got, ok, i)
			break
		}
	}

	// A 1500-unit grid: the warm lookup alone is over the cap.
	lenBefore := repo.Len()
	rng := rand.New(rand.NewSource(4))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{Samples: 40, Features: 3, Informative: 2, Noise: 1}, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewNoOp())
	g.AddRegressionModels(&mlmodels.LinearRegression{Alpha: 1})
	alphas := make([]float64, 1500)
	for i := range alphas {
		alphas[i] = float64(i+1) / 100
	}
	scorer, _ := metrics.ScorerByName("rmse")
	c.Metric = "rmse"
	res, err := core.Search(ctx, g, ds, core.SearchOptions{
		Splitter:  crossval.KFold{K: 2},
		Scorer:    scorer,
		ParamGrid: map[string][]float64{"ridge__alpha": alphas},
		Store:     c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Units) != 1500 || res.Degraded != 0 || res.Computed != 1500 {
		t.Fatalf("%d units: computed %d, degraded %d; want 1500 computed through the DARR, none degraded",
			len(res.Units), res.Computed, res.Degraded)
	}
	if got := repo.Len() - lenBefore; got != 1500 {
		t.Fatalf("the search published %d of its 1500 units", got)
	}
}

func TestPublishQueueFlushPaths(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	ctx := context.Background()

	// Size-triggered: the third enqueue kicks an async flush.
	c.EnablePublishQueue(3, time.Hour)
	for i, k := range []string{"fp|a|e", "fp|b|e", "fp|c|e"} {
		if err := c.Publish(ctx, k, float64(i), "x"); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("size-triggered flush never landed; repo has %d records", repo.Len())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Explicit Flush drains a partial batch synchronously.
	if err := c.Publish(ctx, "fp|d|e", 4, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 4 {
		t.Fatalf("repo has %d records after Flush, want 4", repo.Len())
	}

	// Close drains the remainder and is idempotent.
	if err := c.Publish(ctx, "fp|e|e", 5, "x"); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 5 {
		t.Fatalf("repo has %d records after Close, want 5", repo.Len())
	}
}

func TestPublishQueueIntervalFlush(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	c.EnablePublishQueue(1000, 10*time.Millisecond)
	defer c.Close()
	if err := c.Publish(context.Background(), "fp|tick|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for repo.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("interval flush never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPublishWithoutQueueIsSynchronous: a queue-less client's record has
// landed by the time Publish returns.
func TestPublishWithoutQueueIsSynchronous(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	if err := c.Publish(context.Background(), "fp|sync|e", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Fatal("synchronous publish must land before returning")
	}
}

// TestReleaseOverHTTP: a claim granted by digest over the batch route is
// freed for rivals by a DELETE /darr/claims naming the readable key, which
// the server hashes.
func TestReleaseOverHTTP(t *testing.T) {
	c, _, _, _ := newTestServer(t)
	ctx := context.Background()
	granted, err := c.Claim(ctx, "fp|r|e")
	if err != nil || !granted {
		t.Fatalf("claim = %v, %v", granted, err)
	}
	rival := NewClient(c.BaseURL, "rival")
	if g, _ := rival.Claim(ctx, "fp|r|e"); g {
		t.Fatal("rival claimed a held key")
	}
	if err := c.Release(ctx, "fp|r|e"); err != nil {
		t.Fatal(err)
	}
	if g, err := rival.Claim(ctx, "fp|r|e"); err != nil || !g {
		t.Fatalf("released key not re-claimable: %v, %v", g, err)
	}
}

// TestClientRefusesMalformedReplies: a lookup or claim reply of the wrong
// type, length or padding — a server before digests answering JSON among
// them — fails the call with an error naming the shape the client wants,
// and no answer leaks out of it.
func TestClientRefusesMalformedReplies(t *testing.T) {
	ctx := context.Background()
	keys := []string{"fp|a|e", "fp|b|e", "fp|c|e"}
	for _, tc := range []struct {
		name, contentType string
		reply             []byte
		lookup            bool // the lookup refuses it; otherwise the claim does
	}{
		{"old server lookup", "application/json", []byte(`{"scores":[1.5,null,null]}`), true},
		{"old server claim", "application/json", []byte(`{"granted":[true,false,false]}`), false},
		{"padding bit", octetStream, []byte{0x08}, false},
		{"lookup padding bit", octetStream, []byte{0x10}, true},
		{"bytes past the bitmap", octetStream, []byte{0x01, 0x00}, false},
		{"popcount disagrees", octetStream, []byte{0x03, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f}, true},
		{"truncated score", octetStream, []byte{0x01, 0, 0, 0, 0, 0, 0, 0xf8}, true},
		{"no bitmap", octetStream, nil, true},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", tc.contentType)
			_, _ = w.Write(tc.reply)
		}))
		c := NewClient(ts.URL, "me")
		var err error
		var answers int
		shape := claimReplyShape
		if tc.lookup {
			shape = lookupReplyShape
			var scores map[string]float64
			scores, err = c.LookupBatch(ctx, keys)
			answers = len(scores)
		} else {
			var granted map[string]bool
			granted, err = c.ClaimBatch(ctx, keys)
			answers = len(granted)
		}
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), shape) || answers != 0 {
			t.Errorf("%s: %d answers, err %v; want none and an error naming %q", tc.name, answers, err, shape)
		}
	}
}

// TestLookupBodyAllocatesNothingPerKey: the body of a 132-key lookup — the
// warm search of the coop grid — is built in the one buffer it goes out in.
func TestLookupBodyAllocatesNothingPerKey(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	keys := make([]string, 132)
	for i := range keys {
		keys[i] = core.UnitKey("4f1c9a0be27d3c55", fmt.Sprintf("input -> minmaxscaler -> selectkbest(k=3) -> knn(k=%d)", i), "kfold(k=5,shuffle=true)|rmse|seed=1|numerics=3")
	}
	body := make([]byte, 0, 32*len(keys))
	if got := testing.AllocsPerRun(20, func() { body = appendDigests(body[:0], keys) }); got != 0 {
		t.Fatalf("a %d-key lookup body allocates %v times beyond its buffer, want 0", len(keys), got)
	}
	if len(body) != 32*len(keys) || darr.Digest(body[32*131:]) != darr.KeyDigest(keys[131]) {
		t.Fatalf("body of %d bytes does not end with the last key's digest", len(body))
	}
}

// TestLookupBodyIsEveryKeysDigest: LookupBatch resends the last lookup's
// body when its keys are the same, so its body must still be
// appendDigests' of the keys, byte for byte, whatever changed between
// lookups: a repeat, one key changed, a shorter and a longer batch, the
// same keys one position on, and a caller that rewrote its own slice in
// place after sending it.
func TestLookupBodyIsEveryKeysDigest(t *testing.T) {
	var mu sync.Mutex
	var sent []byte
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
		}
		mu.Lock()
		sent = b
		mu.Unlock()
		w.Header().Set("Content-Type", octetStream)
		w.Write(make([]byte, (len(b)/digestSize+7)/8)) // no key has a score
	}))
	defer ts.Close()
	c := NewClient(ts.URL, "memo")
	keys := make([]string, 20)
	for i := range keys {
		keys[i] = core.UnitKey("4f1c9a0be27d3c55", fmt.Sprintf("input -> noop -> knn(k=%d)", i), "kfold(k=5)|rmse|seed=1|numerics=3")
	}
	lookup := func(step string, keys []string) {
		t.Helper()
		if _, err := c.LookupBatch(context.Background(), keys); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if want := appendDigests(nil, keys); !bytes.Equal(sent, want) {
			t.Errorf("%s: sent %d bytes that are not the %d keys' digests", step, len(sent), len(keys))
		}
	}
	lookup("first", keys)
	lookup("repeat", keys)
	changed := slices.Clone(keys)
	changed[7] = "fp|another pipeline|kfold(k=5)"
	lookup("one key changed", changed)
	lookup("shorter", changed[:12])
	lookup("longer", append(slices.Clone(keys), "fp|extra 1|e", "fp|extra 2|e"))
	lookup("shifted", append([]string{"fp|new first|e"}, keys...))
	mine := slices.Clone(keys)
	lookup("mine", mine)
	mine[3] = "fp|rewritten in place|e"
	lookup("mutated in place", mine)
}

// TestConcurrentLookupsGetTheirOwnScores: two goroutines look up different
// key sets on one client at once, so each replaces the body the other
// would resend. Every reply must still be its own keys' scores. Run it
// under -race: the kept digests are stored while the other call reads
// them.
func TestConcurrentLookupsGetTheirOwnScores(t *testing.T) {
	c, repo, _, _ := newTestServer(t)
	sets := [2][]string{make([]string, 40), make([]string, 40)}
	var recs []darr.Record
	for s := range sets {
		for i := range sets[s] {
			sets[s][i] = fmt.Sprintf("fp|set%d unit %d|e", s, i)
			recs = append(recs, darr.Record{Key: sets[s][i], DatasetFP: "fp", Score: float64(1000*s + i)})
		}
	}
	if err := repo.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s, keys := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				// Every other round looks up a prefix, so the lengths differ too.
				ks := keys[:len(keys)-n%2*7]
				scores, err := c.LookupBatch(context.Background(), ks)
				if err != nil || len(scores) != len(ks) {
					t.Errorf("set %d: %d scores for %d keys, err %v", s, len(scores), len(ks), err)
					return
				}
				for i, k := range ks {
					if scores[k] != float64(1000*s+i) {
						t.Errorf("set %d key %d: score %v, want %d", s, i, scores[k], 1000*s+i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// raceDetector reports whether this test binary was built with -race, under
// which sync.Pool sheds Puts and allocation counts stop being exact.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}

// FuzzBatchRoutes: whatever request reaches a cooperation route, the server
// answers without a panic or a 5xx, and every non-2xx reply is a JSON
// errorReply carrying its status. A lookup, claim or wait body that is not
// application/octet-stream is a 415; a 200 lookup or claim reply is the
// bitmap form answering the request's digests by position, each the repo's
// own answer for it; a wait with no time to wait answers 204 when the
// peer holds every digest and 200 otherwise. Each input meets a fresh repo
// holding two records and one peer's claim, behind a server that takes at
// most four keys a batch.
func FuzzBatchRoutes(f *testing.F) {
	// The requests a cooperative search makes, by the route selector drawn.
	cooperationRoutes := []struct{ method, path string }{
		{http.MethodPost, "/darr/batch/lookup"},
		{http.MethodPost, "/darr/batch/claims"},
		{http.MethodPost, "/darr/batch/records"},
		{http.MethodDelete, "/darr/claims"},
		{http.MethodPost, "/darr/batch/wait?wait=0s"},
	}
	published := map[darr.Digest]float64{darr.KeyDigest("fp|a|e"): 1, darr.KeyDigest("fp|b|e"): 2}
	held := darr.KeyDigest("fp|c|e")
	logTo(f, io.Discard)
	f.Fuzz(func(t *testing.T, route uint8, contentType, clientID string, body []byte) {
		repo := darr.NewRepo(nil, time.Minute)
		if err := repo.PutBatch([]darr.Record{{Key: "fp|a|e", Score: 1}, {Key: "fp|b|e", Score: 2}}); err != nil {
			t.Fatal(err)
		}
		repo.ClaimBatch([]string{"fp|c|e"}, "peer")
		srv := NewServer(repo, nil)
		srv.maxBatchKeys = 4
		rt := cooperationRoutes[int(route)%len(cooperationRoutes)]
		req := httptest.NewRequest(rt.method, rt.path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		req.Header.Set(clientIDHeader, clientID)
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)

		code := w.Code
		waitRoute := strings.HasPrefix(rt.path, "/darr/batch/wait")
		digestRoute := rt.path == "/darr/batch/lookup" || rt.path == "/darr/batch/claims" || waitRoute
		if code >= 500 {
			t.Fatalf("%s %s answered %d: %s", rt.method, rt.path, code, w.Body)
		}
		if digestRoute && contentType != octetStream && code != http.StatusUnsupportedMediaType {
			t.Fatalf("%s body of type %q answered %d, want 415", rt.path, contentType, code)
		}
		if code >= 300 {
			var e errorReply
			if ct := w.Header().Get("Content-Type"); ct != "application/json" {
				t.Fatalf("%d reply has content type %q", code, ct)
			}
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" || e.Status != code {
				t.Fatalf("%d reply %q is not an errorReply (%v)", code, w.Body, err)
			}
			return
		}
		if !digestRoute {
			return
		}
		n := len(body) / 32
		if len(body)%32 != 0 || n == 0 || n > 4 || rt.path == "/darr/batch/claims" && clientID == "" {
			t.Fatalf("%s accepted a body of %d bytes from client %q", rt.path, len(body), clientID)
		}
		digestAt := func(i int) darr.Digest { return darr.Digest(body[32*i:]) }
		if waitRoute {
			allHeld := true
			for i := 0; i < n; i++ {
				allHeld = allHeld && digestAt(i) == held
			}
			if want := map[bool]int{true: http.StatusNoContent, false: http.StatusOK}[allHeld]; code != want || w.Body.Len() != 0 {
				t.Fatalf("wait on %x answered %d with %d body bytes, want %d and none", body, code, w.Body.Len(), want)
			}
			return
		}
		if ct := w.Header().Get("Content-Type"); ct != octetStream {
			t.Fatalf("%s 200 reply has content type %q", rt.path, ct)
		}
		answered := 0
		var err error
		if rt.path == "/darr/batch/lookup" {
			err = readScores(w.Body.Bytes(), n, func(i int, score float64) {
				if want, ok := published[digestAt(i)]; !ok || score != want {
					t.Fatalf("lookup answered %v at %d, want %v (published %v)", score, i, want, ok)
				}
				answered++
			})
			for i := 0; i < n; i++ {
				if _, ok := published[digestAt(i)]; ok {
					answered--
				}
			}
		} else {
			err = readGrants(w.Body.Bytes(), n, func(i int, granted bool) {
				_, done := published[digestAt(i)]
				if want := !done && (digestAt(i) != held || clientID == "peer"); granted != want {
					t.Fatalf("claim by %q answered %v at %d, want %v", clientID, granted, i, want)
				}
			})
		}
		if err != nil || answered != 0 {
			t.Fatalf("%s reply %x for %d digests: %v, %d hits unaccounted for", rt.path, w.Body.Bytes(), n, err, answered)
		}
	})
}

// FuzzBatchReply: whatever reply body a client reads for a batch of n keys,
// readScores and readGrants never panic, and they accept exactly the
// replies of the bitmap form — a lookup's ⌈n/8⌉ bitmap bytes with no bit
// set past n, then 8 bytes per set bit; a claim's bitmap alone — reading
// each answer from its position. A JSON reply from a server before digests,
// set padding bits, a bitmap whose popcount disagrees with the length and a
// truncated score are all errors.
func FuzzBatchReply(f *testing.F) {
	f.Fuzz(func(t *testing.T, n uint8, body []byte) {
		m := (int(n) + 7) / 8
		padded := len(body) >= m && n%8 != 0 && body[m-1]>>(n%8) != 0
		set := 0
		if len(body) >= m {
			for i := 0; i < int(n); i++ {
				if body[i/8]>>(i%8)&1 == 1 {
					set++
				}
			}
		}

		next := 0 // the score bytes read so far
		serr := readScores(body, int(n), func(i int, score float64) {
			if body[i/8]>>(i%8)&1 == 0 {
				t.Fatalf("lookup reply %x: key %d read as a hit, its bit is clear", body, i)
			}
			if want := binary.LittleEndian.Uint64(body[m+8*next:]); math.Float64bits(score) != want {
				t.Fatalf("lookup reply %x: hit %d read as %x, want %x", body, next, math.Float64bits(score), want)
			}
			next++
		})
		if valid := len(body) >= m && !padded && len(body) == m+8*set; (serr == nil) != valid {
			t.Fatalf("lookup reply %x for %d keys: err %v, want valid=%v", body, n, serr, valid)
		}
		if serr == nil && next != set {
			t.Fatalf("lookup reply %x: %d hits read of %d", body, next, set)
		}

		grants := 0
		gerr := readGrants(body, int(n), func(i int, granted bool) {
			if granted != (body[i/8]>>(i%8)&1 == 1) || i != grants {
				t.Fatalf("claim reply %x: key %d read as %v", body, i, granted)
			}
			grants++
		})
		if valid := len(body) == m && !padded; (gerr == nil) != valid {
			t.Fatalf("claim reply %x for %d keys: err %v, want valid=%v", body, n, gerr, valid)
		}
		if gerr == nil && grants != int(n) {
			t.Fatalf("claim reply %x: %d of %d keys answered", body, grants, n)
		}
	})
}
