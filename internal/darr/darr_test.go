package darr

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"coda/internal/core"
)

// fixed clock helper.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Date(2026, 7, 6, 12, 0, 0, 0, time.UTC)} }

func (c *clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// claimOne asks r for one key on clientID's behalf.
func claimOne(r *Repo, key, clientID string) bool {
	return r.ClaimBatch([]string{key}, clientID)[key]
}

// get reads one record through GetBatch.
func get(r *Repo, key string) (Record, error) {
	rec, ok := r.GetBatch([]string{key})[key]
	if !ok {
		return Record{}, errors.New("no record for " + key)
	}
	return rec, nil
}

func TestPutGetAndQuery(t *testing.T) {
	r := NewRepo(nil, 0)
	rec := Record{
		Key:       "fp1|input -> noop -> knn(k=5)|kfold(k=5,shuffle=true)|rmse|seed=1",
		DatasetFP: "fp1", PipelineSpec: "input -> noop -> knn(k=5)",
		EvalSpec: "kfold(k=5,shuffle=true)|rmse|seed=1",
		Metric:   "rmse", Score: 1.5, ClientID: "c1", Explanation: "test",
	}
	if err := r.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, err := get(r, rec.Key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Score != 1.5 || got.ClientID != "c1" {
		t.Fatalf("got %+v", got)
	}
	if got.CreatedAt.IsZero() {
		t.Fatal("CreatedAt not stamped")
	}
	if _, err := get(r, "missing"); err == nil {
		t.Fatal("missing key found")
	}
	if err := r.Put(Record{}); err == nil {
		t.Fatal("want empty-key error")
	}

	// Query by dataset.
	rec2 := rec
	rec2.Key = "fp1|input -> noop -> linearregression(alpha=0)|eval"
	rec2.PipelineSpec = "input -> noop -> linearregression(alpha=0)"
	if err := r.Put(rec2); err != nil {
		t.Fatal(err)
	}
	rec3 := rec
	rec3.Key = "fp2|other|eval"
	rec3.DatasetFP = "fp2"
	if err := r.Put(rec3); err != nil {
		t.Fatal(err)
	}
	recs := r.QueryByDataset("fp1")
	if len(recs) != 2 {
		t.Fatalf("query returned %d records", len(recs))
	}
	// Sorted by pipeline spec.
	if recs[0].PipelineSpec > recs[1].PipelineSpec {
		t.Fatal("query results not sorted")
	}
	if len(r.QueryByDataset("fp3")) != 0 {
		t.Fatal("unknown dataset should return nothing")
	}
}

func TestClaimSemantics(t *testing.T) {
	ck := newClock()
	r := NewRepo(ck.Now, time.Minute)
	if !claimOne(r, "k1", "alice") {
		t.Fatal("first claim should succeed")
	}
	if claimOne(r, "k1", "bob") {
		t.Fatal("second client must not steal an active claim")
	}
	if !claimOne(r, "k1", "alice") {
		t.Fatal("re-claim by owner should refresh")
	}
	// Claims expire so crashed clients don't block work forever.
	ck.Advance(2 * time.Minute)
	if !claimOne(r, "k1", "bob") {
		t.Fatal("expired claim should be reclaimable")
	}
	// Completed work cannot be claimed.
	if err := r.Put(Record{Key: "k2", DatasetFP: "fp"}); err != nil {
		t.Fatal(err)
	}
	if claimOne(r, "k2", "alice") {
		t.Fatal("existing record must not be claimable")
	}
}

func TestReleaseClaim(t *testing.T) {
	r := NewRepo(nil, time.Hour)
	claimOne(r, "k", "alice")
	r.Release("k", "bob") // not the owner: no-op
	if claimOne(r, "k", "bob") {
		t.Fatal("release by non-owner must not free the claim")
	}
	r.Release("k", "alice")
	if !claimOne(r, "k", "bob") {
		t.Fatal("released claim should be available")
	}
}

func TestPutReleasesClaim(t *testing.T) {
	r := NewRepo(nil, time.Hour)
	claimOne(r, "k", "alice")
	if err := r.Put(Record{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if r.ActiveClaims() != 0 {
		t.Fatal("publishing a result should clear its claim")
	}
}

func TestClientAdapterImplementsResultStore(t *testing.T) {
	var _ core.ResultStore = (*Client)(nil)
	repo := NewRepo(nil, time.Minute)
	c := &Client{Repo: repo, ClientID: "c1", Metric: "rmse"}

	key := core.UnitKey("fpX", "input -> noop -> knn(k=3)", "kfold(k=3,shuffle=true)|rmse|seed=7")
	ctx := context.Background()
	if scores, err := c.LookupBatch(ctx, []string{key}); err != nil || len(scores) != 0 {
		t.Fatalf("lookup empty repo: %v %v", scores, err)
	}
	claimed, err := c.ClaimBatch(ctx, []string{key})
	if err != nil || !claimed[key] {
		t.Fatalf("claim: %v %v", claimed, err)
	}
	if err := c.Publish(ctx, key, 2.25, "explanation here"); err != nil {
		t.Fatal(err)
	}
	scores, err := c.LookupBatch(ctx, []string{key})
	if err != nil || scores[key] != 2.25 {
		t.Fatalf("lookup after publish: %v %v", scores, err)
	}
	// The record carries the parsed structure.
	rec, err := get(repo, key)
	if err != nil {
		t.Fatal(err)
	}
	if rec.DatasetFP != "fpX" {
		t.Fatalf("fp %q", rec.DatasetFP)
	}
	if rec.PipelineSpec != "input -> noop -> knn(k=3)" {
		t.Fatalf("spec %q", rec.PipelineSpec)
	}
	if rec.EvalSpec != "kfold(k=3,shuffle=true)|rmse|seed=7" {
		t.Fatalf("eval %q", rec.EvalSpec)
	}
	if rec.Metric != "rmse" || rec.ClientID != "c1" {
		t.Fatalf("metadata %+v", rec)
	}
	// Query sees it.
	if got := repo.QueryByDataset("fpX"); len(got) != 1 {
		t.Fatalf("query %d", len(got))
	}
}

func TestSplitKey(t *testing.T) {
	for _, tc := range []struct {
		key, fp, spec, eval string
	}{
		{"abc|input -> x -> y|kfold(k=5)|rmse|seed=1", "abc", "input -> x -> y", "kfold(k=5)|rmse|seed=1"},
		// No separators: everything lands in the spec position.
		{"nokey", "", "nokey", ""},
		{"", "", "", ""},
		// One separator: no eval spec.
		{"fp|spec", "fp", "spec", ""},
		{"|", "", "", ""},
		// Empty fields survive round the separators.
		{"||", "", "", ""},
		{"fp||eval", "fp", "", "eval"},
		{"|spec|eval", "", "spec", "eval"},
		{"fp|spec|", "fp", "spec", ""},
	} {
		fp, spec, eval := SplitKey(tc.key)
		if fp != tc.fp || spec != tc.spec || eval != tc.eval {
			t.Errorf("SplitKey(%q) = %q %q %q, want %q %q %q",
				tc.key, fp, spec, eval, tc.fp, tc.spec, tc.eval)
		}
	}
}

// TestClaimExpiryBoundary drives the TTL edge with a fake clock: a
// claim is held strictly before its expiry instant and free at it.
func TestClaimExpiryBoundary(t *testing.T) {
	ck := newClock()
	r := NewRepo(ck.Now, time.Minute)
	if !claimOne(r, "k", "alice") {
		t.Fatal("first claim should succeed")
	}
	ck.Advance(time.Minute - time.Nanosecond)
	if claimOne(r, "k", "bob") {
		t.Fatal("claim stolen one nanosecond before expiry")
	}
	ck.Advance(time.Nanosecond)
	if !claimOne(r, "k", "bob") {
		t.Fatal("claim not reclaimable exactly at expiry")
	}
	// Bob's fresh claim restarts the TTL from his grant time.
	ck.Advance(time.Minute - time.Nanosecond)
	if claimOne(r, "k", "carol") {
		t.Fatal("refreshed claim expired too early")
	}
	if r.ActiveClaims() != 1 {
		t.Fatalf("active claims %d, want 1", r.ActiveClaims())
	}
}

// TestOwnerReclaimRefreshesTTL: an owner re-claim pushes expiry forward,
// so a heartbeating client keeps its work.
func TestOwnerReclaimRefreshesTTL(t *testing.T) {
	ck := newClock()
	r := NewRepo(ck.Now, time.Minute)
	claimOne(r, "k", "alice")
	ck.Advance(45 * time.Second)
	if !claimOne(r, "k", "alice") {
		t.Fatal("owner re-claim must succeed")
	}
	// 30s later the original TTL would have lapsed; the refresh holds.
	ck.Advance(30 * time.Second)
	if claimOne(r, "k", "bob") {
		t.Fatal("refreshed claim lost before its new expiry")
	}
}

func TestRepoBatchOps(t *testing.T) {
	ck := newClock()
	r := NewRepo(ck.Now, time.Minute)
	if err := r.PutBatch([]Record{
		{Key: "a", DatasetFP: "fp", Score: 1},
		{Key: "b", DatasetFP: "fp", Score: 2},
	}); err != nil {
		t.Fatal(err)
	}
	got := r.GetBatch([]string{"a", "b", "missing"})
	if len(got) != 2 || got["a"].Score != 1 || got["b"].Score != 2 {
		t.Fatalf("GetBatch = %+v", got)
	}
	if got["a"].CreatedAt.IsZero() {
		t.Fatal("PutBatch must stamp CreatedAt")
	}
	lookups, hits, puts := r.Stats()
	if lookups != 3 || hits != 2 || puts != 2 {
		t.Fatalf("stats lookups=%d hits=%d puts=%d; batches must feed the per-key accounting", lookups, hits, puts)
	}

	// Claims: existing records are denied, fresh keys granted, and a
	// peer's unexpired claim blocks.
	claimOne(r, "held", "peer")
	granted := r.ClaimBatch([]string{"a", "new1", "new2", "held"}, "alice")
	want := map[string]bool{"a": false, "new1": true, "new2": true, "held": false}
	for k, w := range want {
		if granted[k] != w {
			t.Fatalf("ClaimBatch[%q] = %v, want %v (all: %+v)", k, granted[k], w, granted)
		}
	}
	// PutBatch clears the claims it fulfills.
	if err := r.PutBatch([]Record{{Key: "new1", Score: 3}}); err != nil {
		t.Fatal(err)
	}
	if claimOne(r, "new1", "bob") {
		t.Fatal("published key must not be claimable")
	}
	if !claimOne(r, "new2", "alice") {
		t.Fatal("alice still owns new2")
	}

	// A bad record rejects the whole batch atomically.
	if err := r.PutBatch([]Record{{Key: "ok", Score: 9}, {Key: ""}}); err == nil {
		t.Fatal("want empty-key error")
	}
	if _, err := get(r, "ok"); err == nil {
		t.Fatal("rejected batch must store nothing")
	}
}

func TestClientBatchAdapter(t *testing.T) {
	repo := NewRepo(nil, time.Minute)
	alice := &Client{Repo: repo, ClientID: "alice", Metric: "rmse"}
	bob := &Client{Repo: repo, ClientID: "bob", Metric: "rmse"}
	ctx := context.Background()

	keys := []string{"fp|s1|e", "fp|s2|e"}
	scores, err := alice.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 0 {
		t.Fatalf("empty repo LookupBatch = %v, %v", scores, err)
	}
	granted, err := alice.ClaimBatch(ctx, keys)
	if err != nil || !granted[keys[0]] || !granted[keys[1]] {
		t.Fatalf("ClaimBatch = %v, %v", granted, err)
	}
	// Alice abandons one unit; bob can take it over immediately.
	if err := alice.Release(ctx, keys[1]); err != nil {
		t.Fatal(err)
	}
	bobGrants, err := bob.ClaimBatch(ctx, keys)
	if err != nil || bobGrants[keys[0]] || !bobGrants[keys[1]] {
		t.Fatalf("bob ClaimBatch = %v, %v", bobGrants, err)
	}
	if err := alice.Publish(ctx, keys[0], 1.25, "done"); err != nil {
		t.Fatal(err)
	}
	scores, err = bob.LookupBatch(ctx, keys)
	if err != nil || len(scores) != 1 || scores[keys[0]] != 1.25 {
		t.Fatalf("LookupBatch after publish = %v, %v", scores, err)
	}
}

func TestConcurrentClaims(t *testing.T) {
	r := NewRepo(nil, time.Minute)
	const workers = 16
	winners := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if claimOne(r, "contested", string(rune('a'+w))) {
				winners <- string(rune('a' + w))
			}
		}()
	}
	wg.Wait()
	close(winners)
	n := 0
	for range winners {
		n++
	}
	if n != 1 {
		t.Fatalf("%d clients won a single claim", n)
	}
}

func TestStats(t *testing.T) {
	r := NewRepo(nil, time.Minute)
	_ = r.Put(Record{Key: "k"})
	_, _ = get(r, "k")
	_, _ = get(r, "missing")
	lookups, hits, puts := r.Stats()
	if lookups != 2 || hits != 1 || puts != 1 {
		t.Fatalf("stats %d %d %d", lookups, hits, puts)
	}
	if r.Len() != 1 {
		t.Fatalf("len %d", r.Len())
	}
}

// TestWait: Wait returns at once for a key nobody holds; otherwise when a
// held key is published, released or past its expiry, not when another
// key changes; and with ctx's error when ctx ends first.
func TestWait(t *testing.T) {
	var _ core.Waiter = &Client{}
	ctx := context.Background()
	r := NewRepo(nil, time.Hour)
	if err := r.Wait(ctx, []string{"free"}); err != nil {
		t.Fatalf("a key nobody holds: %v", err)
	}
	for name, settle := range map[string]func(key string){
		"publish": func(key string) { _ = r.Put(Record{Key: key}) },
		"release": func(key string) { r.Release(key, "peer") },
	} {
		key, other := name+"-key", name+"-other"
		claimOne(r, key, "peer")
		claimOne(r, other, "peer")
		done := make(chan error, 1)
		go func() { done <- r.Wait(ctx, []string{key}) }()
		r.Release(other, "peer")
		select {
		case err := <-done:
			t.Fatalf("%s: Wait returned %v before its key changed", name, err)
		case <-time.After(20 * time.Millisecond):
		}
		settle(key)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	short := NewRepo(nil, 30*time.Millisecond)
	claimOne(short, "k", "peer")
	start := time.Now()
	if err := short.Wait(ctx, []string{"k"}); err != nil || time.Since(start) < 20*time.Millisecond {
		t.Fatalf("Wait on a 30ms claim returned %v after %v, want nil at its expiry", err, time.Since(start))
	}

	claimOne(r, "held", "peer")
	cctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	if err := r.Wait(cctx, []string{"held"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Wait past its ctx = %v, want the deadline", err)
	}
}
