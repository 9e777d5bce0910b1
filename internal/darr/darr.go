// Package darr implements the Data Analytics Results Repository of Section
// III (Figure 2): a cloud-side repository where cooperating clients store
// every analytics result together with an explanation of how it was
// achieved. Clients query the DARR to learn which calculations have already
// run for a data set, reuse those results, and claim non-overlapping work.
//
// Records are keyed by core.UnitKey — dataset fingerprint, pipeline spec
// (with parameters) and evaluation spec — so clients that agree on the
// scoring mechanism share results exactly. Claims carry a TTL so a crashed
// client's work is eventually re-issued.
package darr

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"coda/internal/obs"
	"coda/internal/persist"
)

// DARR telemetry: cooperative reuse shows up as the hit/miss ratio, and
// claim grants/denials show how well clients partition the work.
var (
	mLookups       = obs.GetCounter("coda_darr_lookups_total")
	mHits          = obs.GetCounter("coda_darr_hits_total")
	mMisses        = obs.GetCounter("coda_darr_misses_total")
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

// ErrNotFound is returned when a record key is unknown.
var ErrNotFound = errors.New("darr: record not found")

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
	records map[string]Record
	claims  map[string]claim
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
		records:  map[string]Record{},
		claims:   map[string]claim{},
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
	if rec.CreatedAt.IsZero() {
		rec.CreatedAt = r.now()
	}
	if err := r.persistRecordsLocked([]Record{rec}); err != nil {
		return err
	}
	r.records[rec.Key] = rec
	delete(r.claims, rec.Key)
	r.puts++
	mPuts.Inc()
	r.notifyLocked()
	return nil
}

// Get returns the record for a key.
func (r *Repo) Get(key string) (Record, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookups++
	mLookups.Inc()
	rec, ok := r.records[key]
	if !ok {
		mMisses.Inc()
		return Record{}, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	r.hits++
	mHits.Inc()
	return rec, nil
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

func (r *Repo) claimLocked(key, clientID string, now time.Time) bool {
	if _, done := r.records[key]; done {
		mClaimsDenied.Inc()
		return false
	}
	c, held := r.claims[key]
	if held && c.clientID != clientID && now.Before(c.expires) {
		mClaimsDenied.Inc()
		return false
	}
	r.claims[key] = claim{clientID: clientID, expires: now.Add(r.claimTTL)}
	mClaimsGranted.Inc()
	return true
}

// GetBatch resolves many keys under one lock acquisition, returning
// records only for the keys that exist. Backs the batched lookup
// endpoint and the in-process client.
func (r *Repo) GetBatch(keys []string) map[string]Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	mBatchLookups.Inc()
	mBatchKeys.Observe(float64(len(keys)))
	out := make(map[string]Record, len(keys))
	for _, k := range keys {
		r.lookups++
		mLookups.Inc()
		rec, ok := r.records[k]
		if !ok {
			mMisses.Inc()
			continue
		}
		r.hits++
		mHits.Inc()
		out[k] = rec
	}
	return out
}

// ClaimBatch attempts to reserve every key for clientID atomically —
// all decisions are made under one lock against one clock reading — and
// reports the per-key grants. A key is denied while another client holds
// an unexpired claim on it or its result exists; re-claiming one's own
// key refreshes the TTL.
func (r *Repo) ClaimBatch(keys []string, clientID string) map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	mBatchClaims.Inc()
	mBatchKeys.Observe(float64(len(keys)))
	now := r.now()
	out := make(map[string]bool, len(keys))
	var granted []string
	var prev []claim // the claim each grant replaced; a zero expiry if none
	for _, k := range keys {
		before := r.claims[k]
		if out[k] = r.claimLocked(k, clientID, now); out[k] {
			granted, prev = append(granted, k), append(prev, before)
		}
	}
	if len(granted) > 0 && r.persistClaimsLocked(granted...) != nil {
		// A grant that would not survive a restart is worse than a denial:
		// the client would compute while peers re-claim. Memory goes back
		// to what the backend still holds, so a key the caller already
		// held stays granted until its durable expiry. Last grant first:
		// a key asked for twice ends as it was before the call.
		for i := len(granted) - 1; i >= 0; i-- {
			k := granted[i]
			if prev[i].expires.IsZero() {
				delete(r.claims, k)
			} else {
				r.claims[k] = prev[i]
			}
			out[k] = prev[i].clientID == clientID && now.Before(prev[i].expires)
		}
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
	now := r.now()
	stamped := make([]Record, len(recs))
	for i, rec := range recs {
		if rec.CreatedAt.IsZero() {
			rec.CreatedAt = now
		}
		stamped[i] = rec
	}
	if err := r.persistRecordsLocked(stamped); err != nil {
		return err
	}
	for _, rec := range stamped {
		r.records[rec.Key] = rec
		delete(r.claims, rec.Key)
		r.puts++
		mPuts.Inc()
	}
	r.notifyLocked()
	return nil
}

// Release drops clientID's claim on key (a no-op for other clients' claims).
func (r *Repo) Release(key, clientID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.claims[key]; ok && c.clientID == clientID {
		delete(r.claims, key)
		if r.kv != nil {
			// Best-effort: a failed delete leaves a durable claim that
			// load prunes once it expires or its record appears.
			_ = r.kv.Delete(claimKey(key))
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

// Wait blocks until one of keys has a record, no claim, or a claim past its
// expiry — at once if that is so already — or until ctx ends, returning
// ctx's error. Publishes and releases wake it; a wall-clock timer covers
// the earliest expiry among the keys' claims.
func (r *Repo) Wait(ctx context.Context, keys []string) error {
	if len(keys) == 0 {
		return nil
	}
	for {
		r.mu.Lock()
		now := r.now()
		var first time.Time // the earliest expiry
		for _, k := range keys {
			c, held := r.claims[k]
			if _, done := r.records[k]; done || !held || !now.Before(c.expires) {
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
// client, parsing the structured fields out of unit keys when publishing.
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
	recs := c.Repo.GetBatch(keys)
	out := make(map[string]float64, len(recs))
	for k, rec := range recs {
		out[k] = rec.Score
	}
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
