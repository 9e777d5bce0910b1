package darr

import (
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"coda/internal/persist"
)

func rec(key, client string, score float64) Record {
	return Record{
		Key:          key,
		DatasetFP:    "fp-" + key,
		PipelineSpec: "pipe",
		EvalSpec:     "cv5",
		Metric:       "f1",
		Score:        score,
		ClientID:     client,
	}
}

// TestDurableRestartSurvival: records and unexpired claims come back after
// a close/reopen, and replayed claims keep their ORIGINAL absolute expiry —
// a restart must not extend a claim's lease.
func TestDurableRestartSurvival(t *testing.T) {
	for _, scheme := range []string{"log", "bolt"} {
		t.Run(scheme, func(t *testing.T) {
			dir := t.TempDir()
			dsn := scheme + ":" + dir
			clk := newClock()
			ttl := time.Minute

			r, err := NewDurableRepo(dsn, clk.Now, ttl)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.Put(rec("k1", "c1", 0.91)); err != nil {
				t.Fatal(err)
			}
			if err := r.Put(rec("k2", "c1", 0.84)); err != nil {
				t.Fatal(err)
			}
			if !claimOne(r, "pending", "c1") {
				t.Fatal("fresh claim denied")
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}

			// "Restart" 30s later: inside the original TTL window.
			clk.Advance(30 * time.Second)
			r2, err := NewDurableRepo(dsn, clk.Now, ttl)
			if err != nil {
				t.Fatal(err)
			}
			got, err := get(r2, "k1")
			if err != nil || got.Score != 0.91 || got.ClientID != "c1" {
				t.Fatalf("k1 after restart: %+v, %v", got, err)
			}
			if r2.Len() != 2 {
				t.Fatalf("records after restart = %d, want 2", r2.Len())
			}
			if r2.ActiveClaims() != 1 {
				t.Fatalf("active claims after restart = %d, want 1", r2.ActiveClaims())
			}
			// The replayed claim still blocks other clients...
			if claimOne(r2, "pending", "c2") {
				t.Fatal("replayed claim did not block a second client")
			}
			// ...but expires at the ORIGINAL absolute time, not restart+TTL.
			clk.Advance(31 * time.Second) // 61s after grant
			if !claimOne(r2, "pending", "c2") {
				t.Fatal("claim survived past its original expiry after restart")
			}
			if err := r2.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDurableRepoOnMemIsMemoryOnly: "mem:" opens no KV, so the repo is the
// memory-only one NewRepo builds.
func TestDurableRepoOnMemIsMemoryOnly(t *testing.T) {
	r, err := NewDurableRepo("mem:", nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(rec("k1", "c1", 0.5)); err != nil {
		t.Fatal(err)
	}
	if _, durable := r.PersistStats(); durable || r.Backend() != "mem" || r.Len() != 1 {
		t.Fatalf("backend %q, durable %v, %d records; want a memory-only repo holding 1", r.Backend(), durable, r.Len())
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestClaimReleasedOnPublish is the regression for the claim-lingering
// bug: once the holder publishes, the claim must be gone immediately — in
// memory AND across a restart — so a second client gets the cached result
// (a hit) instead of waiting out the TTL.
func TestClaimReleasedOnPublish(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	ttl := time.Hour // long TTL: if the claim lingers, the test sees it

	r, err := NewDurableRepo("log:"+dir, clk.Now, ttl)
	if err != nil {
		t.Fatal(err)
	}
	if !claimOne(r, "job", "c1") {
		t.Fatal("c1 claim denied")
	}
	if err := r.Put(rec("job", "c1", 0.77)); err != nil {
		t.Fatal(err)
	}
	// Immediately after publish: no claim left.
	if r.ActiveClaims() != 0 {
		t.Fatalf("claim lingered after publish: %d active", r.ActiveClaims())
	}
	// The second client hits the cached record right away.
	got, err := get(r, "job")
	if err != nil || got.Score != 0.77 {
		t.Fatalf("c2 lookup after publish: %+v, %v", got, err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Across a restart the release is just as durable: no resurrected claim.
	r2, err := NewDurableRepo("log:"+dir, clk.Now, ttl)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.ActiveClaims() != 0 {
		t.Fatalf("claim resurrected by restart: %d active", r2.ActiveClaims())
	}
	if got, err := get(r2, "job"); err != nil || got.Score != 0.77 {
		t.Fatalf("record lost across restart: %+v, %v", got, err)
	}
}

// TestExpiredClaimsDroppedAtLoad: claims past their TTL at restart are
// purged from the backend, not replayed.
func TestExpiredClaimsDroppedAtLoad(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	r, err := NewDurableRepo("log:"+dir, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !claimOne(r, "stale", "c1") {
		t.Fatal("claim denied")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	clk.Advance(2 * time.Minute)
	r2, err := NewDurableRepo("log:"+dir, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.ActiveClaims() != 0 {
		t.Fatalf("expired claim replayed: %d active", r2.ActiveClaims())
	}
	if !claimOne(r2, "stale", "c2") {
		t.Fatal("key not claimable after expired claim dropped")
	}
}

// refusingKV is a persist.KV whose PutBatch fails while refuse is set, as
// on a full disk.
type refusingKV struct {
	persist.KV
	refuse bool
}

func (k *refusingKV) PutBatch(items []persist.Item) error {
	if k.refuse {
		return errors.New("disk full")
	}
	return k.KV.PutBatch(items)
}

// TestRefusedClaimRollsBack: a claim grant the backend refuses does not
// stand, and memory goes back to what the backend still holds. A fresh
// grant is denied and leaves the key free, even when the batch asks for
// the key twice (as duplicate-spec units do). A holder's re-claim stays
// granted until the expiry already on disk: it must not drop the claim
// from memory while the backend keeps it, which let a peer take the key
// and brought the claim back at restart.
func TestRefusedClaimRollsBack(t *testing.T) {
	dsn := "log:" + t.TempDir()
	clk := newClock()
	granted := clk.Now()
	r, err := NewDurableRepo(dsn, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	kv := &refusingKV{KV: r.kv}
	r.kv = kv
	if !claimOne(r, "held", "alice") {
		t.Fatal("fresh claim denied")
	}
	clk.Advance(30 * time.Second)
	kv.refuse = true
	got := r.ClaimBatch([]string{"fresh", "held", "fresh"}, "alice")
	if got["fresh"] || !got["held"] {
		t.Fatalf("refused grants = %v, want fresh denied and held still granted", got)
	}
	if c := r.claims[KeyDigest("held")]; c.clientID != "alice" || !c.expires.Equal(granted.Add(time.Minute)) {
		t.Fatalf("held claim in memory = %+v, want alice's until %v, as on disk", c, granted.Add(time.Minute))
	}
	kv.refuse = false
	if !claimOne(r, "fresh", "bob") {
		t.Fatal("a refused fresh grant left its key held")
	}
	if claimOne(r, "held", "bob") {
		t.Fatal("a refused re-claim freed a key the backend still holds")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewDurableRepo(dsn, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n := r2.ActiveClaims(); n != 2 || claimOne(r2, "held", "bob") {
		t.Fatalf("after restart: %d claims, held free for bob; want 2 and alice still holding it", n)
	}
	clk.Advance(30 * time.Second)
	if !claimOne(r2, "held", "bob") {
		t.Fatal("alice's claim outlived its durable expiry")
	}
}

// TestDurableBatches: PutBatch and ClaimBatch write through as single
// backend batches and survive a restart.
func TestDurableBatches(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	r, err := NewDurableRepo("log:"+dir, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, 10)
	for i := range recs {
		recs[i] = rec(fmt.Sprintf("b/%02d", i), "c1", float64(i)/10)
	}
	if err := r.PutBatch(recs); err != nil {
		t.Fatal(err)
	}
	claims := r.ClaimBatch([]string{"pend/1", "pend/2", "b/03"}, "c1")
	if !claims["pend/1"] || !claims["pend/2"] {
		t.Fatalf("fresh batch claims denied: %v", claims)
	}
	if claims["b/03"] {
		t.Fatal("claim granted for an existing record")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewDurableRepo("log:"+dir, clk.Now, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.Len() != 10 {
		t.Fatalf("records after restart = %d, want 10", r2.Len())
	}
	if r2.ActiveClaims() != 2 {
		t.Fatalf("claims after restart = %d, want 2", r2.ActiveClaims())
	}
	got := r2.GetBatch([]string{"b/00", "b/07"})
	if len(got) != 2 || got["b/07"].Score != 0.7 {
		t.Fatalf("GetBatch after restart: %v", got)
	}
}

// TestDurableReleaseAndCompact: Release drops the durable claim, and
// Compact leaves the repo state intact across a reopen.
func TestDurableReleaseAndCompact(t *testing.T) {
	dir := t.TempDir()
	clk := newClock()
	r, err := NewDurableRepo("log:"+dir, clk.Now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if !claimOne(r, "x", "c1") {
		t.Fatal("claim denied")
	}
	r.Release("x", "c1")
	for i := 0; i < 30; i++ {
		if err := r.Put(rec("hot", "c1", float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	if st, ok := r.PersistStats(); !ok || st.Compactions != 1 {
		t.Fatalf("persist stats after compact: %+v ok=%v", st, ok)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := NewDurableRepo("log:"+dir, clk.Now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if r2.ActiveClaims() != 0 {
		t.Fatal("released claim came back after compact+restart")
	}
	if got, err := get(r2, "hot"); err != nil || got.Score != 29 {
		t.Fatalf("hot = %+v, %v after compact+restart", got, err)
	}
	if r2.Backend() != "log" {
		t.Fatalf("backend = %q", r2.Backend())
	}
}

// TestMemoryRepoUnchanged: a plain NewRepo has no backend and behaves
// exactly as before the durability work.
func TestMemoryRepoUnchanged(t *testing.T) {
	r := NewRepo(nil, time.Minute)
	if r.Backend() != "mem" {
		t.Fatalf("memory repo backend = %q", r.Backend())
	}
	if _, ok := r.PersistStats(); ok {
		t.Fatal("memory repo reports persist stats")
	}
	if err := r.Put(rec("k", "c", 1)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDarrPutMem / BenchmarkDarrPutDurable measure the durability
// write-through overhead per published record.
func BenchmarkDarrPutMem(b *testing.B) {
	r := NewRepo(nil, time.Minute)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Put(rec(fmt.Sprintf("k/%05d", i%1000), "bench", 0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDarrPutDurable(b *testing.B) {
	dir := b.TempDir()
	r, err := NewDurableRepo("log:"+dir, nil, time.Minute)
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Put(rec(fmt.Sprintf("k/%05d", i%1000), "bench", 0.5)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPutAllocationsExact pins what publishing one record allocates in
// steady state, in memory and written through to a log: backend, so one
// new allocation per published result fails here.
func TestPutAllocationsExact(t *testing.T) {
	if raceDetector() {
		t.Skip("allocation counts are exact only without the race detector")
	}
	durable, err := NewDurableRepo("log:"+t.TempDir(), nil, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	defer durable.Close()
	record := rec("k/00001", "alloc", 0.5)
	for _, c := range []struct {
		name string
		repo *Repo
		want float64
	}{
		{"Put mem", NewRepo(nil, time.Minute), 0},
		{"Put durable", durable, 8}, // the log's table keeps the encoded record
	} {
		got := testing.AllocsPerRun(20, func() {
			if err := c.repo.Put(record); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s: %v allocations in steady state, want exactly %v", c.name, got, c.want)
		}
	}
}

// raceDetector reports whether this test binary was built with -race. Under
// the detector sync.Pool sheds a quarter of its Puts on purpose, so
// steady-state allocation counts stop being exact.
func raceDetector() bool {
	bi, _ := debug.ReadBuildInfo()
	return bi != nil && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}
