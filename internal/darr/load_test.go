package darr

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"coda/internal/persist"
)

// mapKV is a persist.KV held in a map: load's input, with no files.
type mapKV struct {
	persist.KV // unused methods panic
	m          map[string][]byte
}

func (k *mapKV) PutBatch(items []persist.Item) error {
	for _, it := range items {
		k.m[it.Key] = it.Value
	}
	return nil
}

func (k *mapKV) Delete(keys ...string) error {
	for _, key := range keys {
		delete(k.m, key)
	}
	return nil
}

func (k *mapKV) Cursor(prefix string) (persist.Cursor, error) {
	c := &mapCursor{kv: k, at: -1}
	for key := range k.m {
		if strings.HasPrefix(key, prefix) {
			c.keys = append(c.keys, key)
		}
	}
	sort.Strings(c.keys)
	return c, nil
}

type mapCursor struct {
	kv   *mapKV
	keys []string
	at   int
}

func (c *mapCursor) Next() bool    { c.at++; return c.at < len(c.keys) }
func (c *mapCursor) Key() string   { return c.keys[c.at] }
func (c *mapCursor) Value() []byte { return c.kv.m[c.keys[c.at]] }
func (c *mapCursor) Err() error    { return nil }
func (c *mapCursor) Close() error  { return nil }

// FuzzDurableLoad: whatever record, claim key and claim value a backend
// holds, load does not panic. It refuses to open only on an entry it cannot
// parse, and it never indexes a claim it could not parse. A claim that
// opens live is the one stored, indexed under the digest its key names and
// held under c/<hex digest>; an expired or already-published one is gone;
// and no claim is left under a readable key.
func FuzzDurableLoad(f *testing.F) {
	now := newClock().Now()
	f.Fuzz(func(t *testing.T, recJSON []byte, claimName string, claimJSON []byte) {
		name := claimPrefix + claimName
		kv := &mapKV{m: map[string][]byte{"r/x": recJSON, name: claimJSON}}
		r := NewRepo(func() time.Time { return now }, time.Minute)
		r.kv = kv
		err := r.load()

		var rec Record
		recErr := json.Unmarshal(recJSON, &rec)
		var cr claimRec
		claimErr := json.Unmarshal(claimJSON, &cr)
		d, readable, nameErr := claimDigest(name)
		if (recErr != nil || claimErr != nil || nameErr != nil) != (err != nil) {
			t.Fatalf("load: %v; record %v, claim %v, claim key %v", err, recErr, claimErr, nameErr)
		}
		if err != nil {
			return
		}
		if _, ok := r.records[KeyDigest(rec.Key)]; !ok || len(r.records) != 1 {
			t.Fatalf("record %q not indexed by its digest: %d records", rec.Key, len(r.records))
		}
		_, published := r.records[d]
		live := !published && now.Before(cr.Expires)
		c, held := r.claims[d]
		if held != live || len(r.claims) != map[bool]int{false: 0, true: 1}[live] {
			t.Fatalf("claim %q (readable %v): held %v, %d claims; live %v", name, readable, held, len(r.claims), live)
		}
		if held && (c.clientID != cr.ClientID || !c.expires.Equal(cr.Expires)) {
			t.Fatalf("claim %q indexed as %+v, stored as %+v", name, c, cr)
		}
		var claimKeys []string
		for k := range kv.m {
			if strings.HasPrefix(k, claimPrefix) {
				claimKeys = append(claimKeys, k)
			}
		}
		if want := []string{claimKey(d)}; live && !slices.Equal(claimKeys, want) || !live && len(claimKeys) != 0 {
			t.Fatalf("claim keys left %q, live %v; want only %q if live", claimKeys, live, want)
		}
	})
}

// The repository testdata/parent-log holds: written by the build before
// digests, through NewDurableRepo with a one-hour claim TTL on the test
// clock. Three records, then a claim by bob at the clock's start and one
// by carol 50 minutes later.
var (
	parentEval    = "kfold(k=5,shuffle=true)|rmse|seed=1|numerics=3"
	parentRecords = map[string]float64{
		"4f1c9a0be27d3c55|input -> standardscaler -> linearregression|" + parentEval:                               1.25,
		"4f1c9a0be27d3c55|input -> minmaxscaler -> covariance -> pca(n_components=3) -> knn(k=5)|" + parentEval:    1.5833333333333333,
		"4f1c9a0be27d3c55|input -> noop -> selectkbest(k=3) -> randomforest(max_depth=8,n_trees=20)|" + parentEval: 1.9166666666666665,
	}
	parentExpiredClaim = "4f1c9a0be27d3c55|input -> robustscaler -> decisiontree(max_depth=3)|" + parentEval
	parentLiveClaim    = "4f1c9a0be27d3c55|input -> robustscaler -> decisiontree(max_depth=5)|" + parentEval
)

// TestParentRepoUpgrades: a durable DARR written by the build before
// digests, reopened 90 minutes in, hits every record by digest; carol's
// claim (live until 110 minutes) is held under c/<hex digest> and survives
// another restart; bob's (expired at 60) is gone; and no claim is left
// under a readable key.
func TestParentRepoUpgrades(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-log")
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	clk := newClock()
	clk.Advance(90 * time.Minute)
	for restart := 0; restart < 2; restart++ {
		r, err := NewDurableRepo("log:"+dir, clk.Now, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(parentRecords))
		for k := range parentRecords {
			keys = append(keys, k)
		}
		hits := 0
		r.LookupDigests(digests(keys), func(i int, rec Record) {
			if rec.Key == keys[i] && rec.Score == parentRecords[keys[i]] {
				hits++
			}
		})
		if hits != len(keys) {
			t.Fatalf("restart %d: %d of %d parent records hit by digest", restart, hits, len(keys))
		}
		var claimKeys []string
		cur, err := r.kv.Cursor(claimPrefix)
		if err != nil {
			t.Fatal(err)
		}
		for cur.Next() {
			claimKeys = append(claimKeys, cur.Key())
		}
		cur.Close()
		if want := []string{claimKey(KeyDigest(parentLiveClaim))}; !slices.Equal(claimKeys, want) {
			t.Fatalf("restart %d: claim keys %q, want only %q", restart, claimKeys, want)
		}
		if r.ActiveClaims() != 1 || claimOne(r, parentLiveClaim, "dave") {
			t.Fatalf("restart %d: carol's live claim is not held (%d active)", restart, r.ActiveClaims())
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewDurableRepo("log:"+dir, clk.Now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !claimOne(r, parentExpiredClaim, "dave") {
		t.Fatal("bob's expired claim still blocks its key")
	}
	clk.Advance(20 * time.Minute)
	if !claimOne(r, parentLiveClaim, "dave") {
		t.Fatal("carol's claim outlived its original expiry")
	}
}
