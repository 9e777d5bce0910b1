package darr

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"time"

	"coda/internal/persist"
)

// Durable layout on the shared persistence layer: records under
// r/<url.PathEscape(key)> and claims under c/<url.PathEscape(key)>, both
// JSON. Claims store their absolute expiry, so replay re-derives the
// remaining TTL instead of granting a crashed process a fresh window.
const (
	recPrefix   = "r/"
	claimPrefix = "c/"
)

func recKey(key string) string   { return recPrefix + url.PathEscape(key) }
func claimKey(key string) string { return claimPrefix + url.PathEscape(key) }

// claimRec is the persisted form of a claim.
type claimRec struct {
	ClientID string    `json:"client_id"`
	Expires  time.Time `json:"expires"`
}

// NewDurableRepo builds a repository whose records and claims are written
// through to the persistence backend a DSN names (see persist.Open) and
// replayed at open — cooperative results survive restarts. "mem:" names
// no KV, so the repo is memory-only, as from NewRepo. nowFn and claimTTL
// behave as in NewRepo.
func NewDurableRepo(dsn string, nowFn func() time.Time, claimTTL time.Duration) (*Repo, error) {
	kv, err := persist.Open(dsn)
	if err != nil {
		return nil, err
	}
	r := NewRepo(nowFn, claimTTL)
	if kv == nil {
		return r, nil
	}
	r.kv = kv
	if err := r.load(); err != nil {
		_ = kv.Close()
		return nil, err
	}
	return r, nil
}

// load rebuilds records and claims from the backend. Replayed claims pass
// the same liveness rules a fresh claim would: a claim whose record was
// published is gone (the publish released it, even if the claim-delete
// itself did not land before a crash), and a claim past its absolute
// expiry is gone (the TTL does not restart). Both kinds are also deleted
// from the backend so they never replay again.
func (r *Repo) load() error {
	cur, err := r.kv.Cursor(recPrefix)
	if err != nil {
		return err
	}
	for cur.Next() {
		var rec Record
		if err := json.Unmarshal(cur.Value(), &rec); err != nil {
			cur.Close()
			return fmt.Errorf("darr: corrupt record %q: %w", cur.Key(), err)
		}
		r.records[rec.Key] = rec
	}
	if err := cur.Err(); err != nil {
		cur.Close()
		return err
	}
	cur.Close()

	ccur, err := r.kv.Cursor(claimPrefix)
	if err != nil {
		return err
	}
	now := r.now()
	var stale []string
	for ccur.Next() {
		key, err := url.PathUnescape(strings.TrimPrefix(ccur.Key(), claimPrefix))
		if err != nil {
			ccur.Close()
			return fmt.Errorf("darr: corrupt claim key %q: %w", ccur.Key(), err)
		}
		var cr claimRec
		if err := json.Unmarshal(ccur.Value(), &cr); err != nil {
			ccur.Close()
			return fmt.Errorf("darr: corrupt claim %q: %w", ccur.Key(), err)
		}
		if _, done := r.records[key]; done || !now.Before(cr.Expires) {
			stale = append(stale, ccur.Key())
			continue
		}
		r.claims[key] = claim{clientID: cr.ClientID, expires: cr.Expires}
	}
	if err := ccur.Err(); err != nil {
		ccur.Close()
		return err
	}
	ccur.Close()
	if len(stale) > 0 {
		if err := r.kv.Delete(stale...); err != nil {
			return err
		}
	}
	return nil
}

// persistRecordsLocked writes records (and the release of their claims)
// through to the backend before they become visible. Record writes land
// first: a crash between the two batches leaves claim keys whose records
// exist, which load drops. Caller holds r.mu.
func (r *Repo) persistRecordsLocked(recs []Record) error {
	if r.kv == nil {
		return nil
	}
	items := make([]persist.Item, len(recs))
	claimKeys := make([]string, len(recs))
	for i, rec := range recs {
		v, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("darr: encoding record %q: %w", rec.Key, err)
		}
		items[i] = persist.Item{Key: recKey(rec.Key), Value: v}
		claimKeys[i] = claimKey(rec.Key)
	}
	if err := r.kv.PutBatch(items); err != nil {
		return fmt.Errorf("darr: persisting records: %w", err)
	}
	return r.kv.Delete(claimKeys...)
}

// persistClaimsLocked writes the current claim state of keys through to
// the backend; a refusal means the grant must not stand (ClaimBatch rolls
// the map back), because a claim that would vanish at restart is worse
// than a denial. Caller holds r.mu.
func (r *Repo) persistClaimsLocked(keys ...string) error {
	if r.kv == nil {
		return nil
	}
	items := make([]persist.Item, 0, len(keys))
	for _, k := range keys {
		c, ok := r.claims[k]
		if !ok {
			continue
		}
		v, err := json.Marshal(claimRec{ClientID: c.clientID, Expires: c.expires})
		if err != nil {
			return err
		}
		items = append(items, persist.Item{Key: claimKey(k), Value: v})
	}
	return r.kv.PutBatch(items)
}

// Backend names the persistence backend underneath the repo ("mem" when
// memory-only).
func (r *Repo) Backend() string {
	if r.kv == nil {
		return "mem"
	}
	return r.kv.Name()
}

// PersistStats reports the backend accounting; ok is false when the repo
// is memory-only.
func (r *Repo) PersistStats() (persist.Stats, bool) {
	if r.kv == nil {
		return persist.Stats{}, false
	}
	return r.kv.Stats(), true
}

// Compact runs the backend's compaction cycle; a no-op when memory-only.
func (r *Repo) Compact() error {
	if r.kv == nil {
		return nil
	}
	return r.kv.Compact()
}

// Close releases the persistence backend; a no-op when memory-only.
func (r *Repo) Close() error {
	if r.kv == nil {
		return nil
	}
	return r.kv.Close()
}
