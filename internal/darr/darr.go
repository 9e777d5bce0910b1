// Package darr implements the Data Analytics Results Repository of Section
// III (Figure 2): a cloud-side repository where cooperating clients store
// every analytics result together with an explanation of how it was
// achieved. Clients query the DARR to learn which calculations have already
// run for a data set, reuse those results, and claim non-overlapping work.
//
// A unit's readable key is core.UnitKey — dataset fingerprint, pipeline
// spec (with parameters) and evaluation spec — so clients that agree on the
// scoring mechanism share results exactly. The repository indexes records
// and claims by the key's Digest, which is also what the batch lookup and
// claim routes carry; a record keeps its readable key and parts, so queries,
// logs and traces still print specs. Claims carry a TTL so a crashed
// client's work is eventually re-issued.
package darr

import (
	"context"
	"crypto/sha256"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
	"unsafe"

	"coda/internal/obs"
	"coda/internal/persist"
)

// DARR telemetry: cooperative reuse shows up as the hit/lookup ratio, and
// claim grants/denials show how well clients partition the work.
var (
	mLookups       = obs.GetCounter("coda_darr_lookups_total")
	mHits          = obs.GetCounter("coda_darr_hits_total")
	mPuts          = obs.GetCounter("coda_darr_puts_total")
	mClaimsGranted = obs.GetCounter(`coda_darr_claims_total{granted="true"}`)
	mClaimsDenied  = obs.GetCounter(`coda_darr_claims_total{granted="false"}`)

	// Batched-protocol telemetry: one batch call covers many units, so
	// the interesting numbers are how many batch calls arrive and how
	// many keys each carries. The per-key counters above tick inside
	// batches, so hit/miss ratios count keys, not calls.
	mBatchLookups = obs.GetCounter("coda_darr_batch_lookups_total")
	mBatchClaims  = obs.GetCounter("coda_darr_batch_claims_total")
	mBatchPuts    = obs.GetCounter("coda_darr_batch_puts_total")
	mBatchKeys    = obs.GetHistogram("coda_darr_batch_size_keys", BatchSizeBuckets)
)

// BatchSizeBuckets is the histogram layout for batch sizes (keys or
// records per batched DARR call).
var BatchSizeBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000}

// Record is one completed analytics calculation.
type Record struct {
	Key          string    `json:"key"`
	DatasetFP    string    `json:"dataset_fp"`
	PipelineSpec string    `json:"pipeline_spec"`
	EvalSpec     string    `json:"eval_spec"`
	Metric       string    `json:"metric"`
	Score        float64   `json:"score"`
	Explanation  string    `json:"explanation"`
	ClientID     string    `json:"client_id"`
	CreatedAt    time.Time `json:"created_at"`
}

// Digest is the repository's key for a unit: the SHA-256 of its readable
// key.
type Digest [sha256.Size]byte

// KeyDigest is key's Digest. It allocates nothing: SHA-256 only reads its
// input, so the key's bytes are hashed where they are.
func KeyDigest(key string) Digest {
	return sha256.Sum256(unsafe.Slice(unsafe.StringData(key), len(key)))
}

// digests hashes keys, in order.
func digests(keys []string) []Digest {
	ds := make([]Digest, len(keys))
	for i, k := range keys {
		ds[i] = KeyDigest(k)
	}
	return ds
}

type claim struct {
	clientID string
	expires  time.Time
}

// Repo is the DARR implementation; the HTTP tier exposes it to remote
// clients. It serves from memory; with a persistence backend attached
// (NewDurableRepo) every record and claim is written through to the
// shared persist layer before it becomes visible, and a restart replays
// them — the paper's "results outlive any one search" property.
type Repo struct {
	now      func() time.Time
	claimTTL time.Duration
	kv       persist.KV // nil = memory-only

	mu      sync.Mutex
	records map[Digest]Record
	claims  map[Digest]claim
	changed chan struct{} // closed when a record is stored or a claim released; made by a waiter
	// accounting for experiments
	lookups, hits, puts int
}

// NewRepo builds a repository. nowFn may be nil (wall clock); claimTTL <= 0
// defaults to one minute.
func NewRepo(nowFn func() time.Time, claimTTL time.Duration) *Repo {
	if nowFn == nil {
		nowFn = time.Now
	}
	if claimTTL <= 0 {
		claimTTL = time.Minute
	}
	return &Repo{
		now:      nowFn,
		claimTTL: claimTTL,
		records:  map[Digest]Record{},
		claims:   map[Digest]claim{},
	}
}

// Put stores (or overwrites) a record and releases any claim on its key
// immediately — a publisher's claim must never linger until TTL once the
// result is available, or peers would wait on work that is already done.
// With a backend attached the record (and the claim release) is durable
// before it becomes visible; a refused write leaves the repo unchanged.
func (r *Repo) Put(rec Record) error {
	if rec.Key == "" {
		return fmt.Errorf("darr: record has empty key")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.storeLocked([]Record{rec})
}

// QueryByDataset returns all records for a dataset fingerprint, sorted by
// pipeline spec — how a client discovers "which calculations have been run
// for a certain data set".
func (r *Repo) QueryByDataset(fp string) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Record
	for _, rec := range r.records {
		if rec.DatasetFP == fp {
			out = append(out, rec)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].PipelineSpec < out[b].PipelineSpec })
	return out
}

func (r *Repo) claimLocked(d Digest, clientID string, now time.Time) bool {
	if _, done := r.records[d]; done {
		mClaimsDenied.Inc()
		return false
	}
	c, held := r.claims[d]
	if held && c.clientID != clientID && now.Before(c.expires) {
		mClaimsDenied.Inc()
		return false
	}
	r.claims[d] = claim{clientID: clientID, expires: now.Add(r.claimTTL)}
	mClaimsGranted.Inc()
	return true
}

// LookupDigests resolves many digests under one lock acquisition, calling
// hit, in request order, with the position and record of each digest that
// has one. hit runs under the repo's lock and must not call back into it.
// Backs the batched lookup route, GetBatch and the in-process client.
func (r *Repo) LookupDigests(ds []Digest, hit func(i int, rec Record)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	mBatchLookups.Inc()
	mBatchKeys.Observe(float64(len(ds)))
	hits := 0
	for i, d := range ds {
		if rec, ok := r.records[d]; ok {
			hits++
			hit(i, rec)
		}
	}
	r.lookups += len(ds)
	r.hits += hits
	mLookups.Add(int64(len(ds)))
	mHits.Add(int64(hits))
}

// GetBatch is LookupDigests over readable keys, returning records only for
// the keys that exist.
func (r *Repo) GetBatch(keys []string) map[string]Record {
	out := make(map[string]Record, len(keys))
	r.LookupDigests(digests(keys), func(i int, rec Record) { out[keys[i]] = rec })
	return out
}

// ClaimDigests attempts to reserve every digest for clientID atomically —
// all decisions are made under one lock against one clock reading — and
// reports the grants by position. A digest is denied while another client
// holds an unexpired claim on it or its result exists; re-claiming one's
// own refreshes the TTL.
func (r *Repo) ClaimDigests(ds []Digest, clientID string) []bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	mBatchClaims.Inc()
	mBatchKeys.Observe(float64(len(ds)))
	now := r.now()
	out := make([]bool, len(ds))
	var granted []Digest
	var prev []claim // the claim each grant replaced; a zero expiry if none
	for i, d := range ds {
		before := r.claims[d]
		if out[i] = r.claimLocked(d, clientID, now); out[i] {
			granted, prev = append(granted, d), append(prev, before)
		}
	}
	if len(granted) > 0 && r.persistClaimsLocked(granted) != nil {
		// A grant that would not survive a restart is worse than a denial:
		// the client would compute while peers re-claim. Memory goes back
		// to what the backend still holds, so a digest the caller already
		// held stays granted until its durable expiry. Last grant first: a
		// digest asked for twice ends as it was before the call.
		for j := len(granted) - 1; j >= 0; j-- {
			if prev[j].expires.IsZero() {
				delete(r.claims, granted[j])
			} else {
				r.claims[granted[j]] = prev[j]
			}
		}
		for i, d := range ds {
			c, held := r.claims[d]
			out[i] = out[i] && held && c.clientID == clientID && now.Before(c.expires)
		}
	}
	return out
}

// ClaimBatch is ClaimDigests over readable keys, reporting the grants by
// key.
func (r *Repo) ClaimBatch(keys []string, clientID string) map[string]bool {
	granted := r.ClaimDigests(digests(keys), clientID)
	out := make(map[string]bool, len(keys))
	for i, k := range keys {
		out[k] = granted[i]
	}
	return out
}

// PutBatch stores many records under one lock acquisition, releasing
// their claims like Put. It validates every record before storing any,
// so a bad record rejects the whole batch.
func (r *Repo) PutBatch(recs []Record) error {
	for i, rec := range recs {
		if rec.Key == "" {
			return fmt.Errorf("darr: batch record %d has empty key", i)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	mBatchPuts.Inc()
	mBatchKeys.Observe(float64(len(recs)))
	return r.storeLocked(append([]Record(nil), recs...))
}

// storeLocked stamps recs (the caller's own copy) with the time, writes
// them through to the backend, and only then makes them visible and
// releases their claims. Caller holds r.mu.
func (r *Repo) storeLocked(recs []Record) error {
	now := r.now()
	for i := range recs {
		if recs[i].CreatedAt.IsZero() {
			recs[i].CreatedAt = now
		}
	}
	if err := r.persistRecordsLocked(recs); err != nil {
		return err
	}
	for _, rec := range recs {
		d := KeyDigest(rec.Key)
		r.records[d] = rec
		delete(r.claims, d)
	}
	r.puts += len(recs)
	mPuts.Add(int64(len(recs)))
	r.notifyLocked()
	return nil
}

// Release drops clientID's claim on key (a no-op for other clients' claims).
func (r *Repo) Release(key, clientID string) {
	d := KeyDigest(key)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.claims[d]; ok && c.clientID == clientID {
		delete(r.claims, d)
		if r.kv != nil {
			// Best-effort: a failed delete leaves a durable claim that
			// load prunes once it expires or its record appears.
			_ = r.kv.Delete(claimKey(d))
		}
		r.notifyLocked()
	}
}

// notifyLocked wakes every Wait: a record was stored or a claim released.
// Caller holds r.mu.
func (r *Repo) notifyLocked() {
	if r.changed != nil {
		close(r.changed)
		r.changed = nil
	}
}

// Wait is WaitDigests over readable keys.
func (r *Repo) Wait(ctx context.Context, keys []string) error {
	return r.WaitDigests(ctx, digests(keys))
}

// WaitDigests blocks until one of ds has a record, no claim, or a claim
// past its expiry — at once if that is so already, or if ds is empty — or
// until ctx ends, returning ctx's error. Publishes and releases wake it; a
// wall-clock timer covers the earliest expiry among the digests' claims.
// Backs Wait and the batch wait route.
func (r *Repo) WaitDigests(ctx context.Context, ds []Digest) error {
	if len(ds) == 0 {
		return nil
	}
	for {
		r.mu.Lock()
		now := r.now()
		var first time.Time // the earliest expiry
		for _, d := range ds {
			c, held := r.claims[d]
			if _, done := r.records[d]; done || !held || !now.Before(c.expires) {
				r.mu.Unlock()
				return nil
			}
			if first.IsZero() || c.expires.Before(first) {
				first = c.expires
			}
		}
		if r.changed == nil {
			r.changed = make(chan struct{})
		}
		changed := r.changed
		r.mu.Unlock()
		t := time.NewTimer(first.Sub(now))
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-changed:
		case <-t.C:
		}
		t.Stop()
	}
}

// ActiveClaims counts unexpired claims.
func (r *Repo) ActiveClaims() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	n := 0
	for _, c := range r.claims {
		if now.Before(c.expires) {
			n++
		}
	}
	return n
}

// Len returns the number of stored records.
func (r *Repo) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.records)
}

// Stats reports lookup/hit/put counts for the cooperation experiments.
func (r *Repo) Stats() (lookups, hits, puts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookups, r.hits, r.puts
}

// Client adapts a Repo to core.ResultStore and core.Waiter for one named
// client: it hashes unit keys at the boundary, and parses the structured
// fields out of them when publishing.
type Client struct {
	Repo     *Repo
	ClientID string
	Metric   string
}

// Wait implements core.Waiter: it returns when the repo stores, releases or
// expires one of keys.
func (c *Client) Wait(ctx context.Context, keys []string) error {
	return c.Repo.Wait(ctx, keys)
}

// LookupBatch implements core.ResultStore. The context is unused here and
// in every method below: the repo is in-process and cannot block.
func (c *Client) LookupBatch(_ context.Context, keys []string) (map[string]float64, error) {
	out := make(map[string]float64, len(keys))
	c.Repo.LookupDigests(digests(keys), func(i int, rec Record) { out[keys[i]] = rec.Score })
	return out, nil
}

// ClaimBatch implements core.ResultStore.
func (c *Client) ClaimBatch(_ context.Context, keys []string) (map[string]bool, error) {
	return c.Repo.ClaimBatch(keys, c.ClientID), nil
}

// Release implements core.ResultStore: a claimed-but-failed unit frees
// its key immediately instead of blocking peers until TTL.
func (c *Client) Release(_ context.Context, key string) error {
	c.Repo.Release(key, c.ClientID)
	return nil
}

// Publish implements core.ResultStore.
func (c *Client) Publish(_ context.Context, key string, score float64, explanation string) error {
	fp, spec, eval := SplitKey(key)
	return c.Repo.Put(Record{
		Key:          key,
		DatasetFP:    fp,
		PipelineSpec: spec,
		EvalSpec:     eval,
		Metric:       c.Metric,
		Score:        score,
		Explanation:  explanation,
		ClientID:     c.ClientID,
	})
}

// SplitKey decomposes a core.UnitKey into its dataset fingerprint, pipeline
// spec and evaluation spec. Pipeline specs never contain '|' (they use
// " -> "), while evaluation specs do, so the first two separators delimit
// the three fields.
func SplitKey(key string) (datasetFP, pipelineSpec, evalSpec string) {
	fp, rest, ok := strings.Cut(key, "|")
	if !ok {
		return "", key, ""
	}
	spec, eval, ok := strings.Cut(rest, "|")
	if !ok {
		return fp, rest, ""
	}
	return fp, spec, eval
}
