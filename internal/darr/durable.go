package darr

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/url"
	"strings"
	"time"

	"coda/internal/persist"
)

// Durable layout on the shared persistence layer, both JSON: records under
// r/<url.PathEscape(readable key)>, claims under c/<hex digest>. A record's
// value carries its readable key, which load hashes to index it. Claims
// store their absolute expiry, so replay re-derives the remaining TTL
// instead of granting a crashed process a fresh window. Builds before
// digests wrote claims under c/<url.PathEscape(readable key)>; load
// re-keys those.
const (
	recPrefix   = "r/"
	claimPrefix = "c/"
)

func recKey(key string) string { return recPrefix + url.PathEscape(key) }

func claimKey(d Digest) string {
	var b [len(claimPrefix) + 2*len(d)]byte
	copy(b[:], claimPrefix)
	hex.Encode(b[len(claimPrefix):], d[:])
	return string(b[:])
}

// claimDigest is the digest a claim key names, and whether the key is in
// the readable form of builds before digests. A unit key always holds a
// '|', escaped as %7C, so its readable form is never 64 hex digits.
func claimDigest(name string) (d Digest, readable bool, err error) {
	s := strings.TrimPrefix(name, claimPrefix)
	if len(s) == 2*len(d) && strings.ToLower(s) == s {
		if _, err := hex.Decode(d[:], []byte(s)); err == nil {
			return d, false, nil
		}
	}
	key, err := url.PathUnescape(s)
	return KeyDigest(key), true, err
}

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
// from the backend so they never replay again. A live claim under a
// readable key is written under its digest before the readable key goes.
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
		r.records[KeyDigest(rec.Key)] = rec
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
	var rekeyed []persist.Item
	var gone []string
	for ccur.Next() {
		d, readable, err := claimDigest(ccur.Key())
		if err != nil {
			ccur.Close()
			return fmt.Errorf("darr: corrupt claim key %q: %w", ccur.Key(), err)
		}
		var cr claimRec
		if err := json.Unmarshal(ccur.Value(), &cr); err != nil {
			ccur.Close()
			return fmt.Errorf("darr: corrupt claim %q: %w", ccur.Key(), err)
		}
		_, done := r.records[d]
		live := !done && now.Before(cr.Expires)
		if live {
			r.claims[d] = claim{clientID: cr.ClientID, expires: cr.Expires}
			if readable {
				rekeyed = append(rekeyed, persist.Item{Key: claimKey(d), Value: ccur.Value()})
			}
		}
		if readable || !live {
			gone = append(gone, ccur.Key())
		}
	}
	if err := ccur.Err(); err != nil {
		ccur.Close()
		return err
	}
	ccur.Close()
	if len(rekeyed) > 0 {
		if err := r.kv.PutBatch(rekeyed); err != nil {
			return err
		}
	}
	if len(gone) > 0 {
		return r.kv.Delete(gone...)
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
		claimKeys[i] = claimKey(KeyDigest(rec.Key))
	}
	if err := r.kv.PutBatch(items); err != nil {
		return fmt.Errorf("darr: persisting records: %w", err)
	}
	return r.kv.Delete(claimKeys...)
}

// persistClaimsLocked writes the current claim state of ds through to the
// backend; a refusal means the grant must not stand (ClaimDigests rolls the
// map back), because a claim that would vanish at restart is worse than a
// denial. Caller holds r.mu.
func (r *Repo) persistClaimsLocked(ds []Digest) error {
	if r.kv == nil {
		return nil
	}
	items := make([]persist.Item, 0, len(ds))
	for _, d := range ds {
		c, ok := r.claims[d]
		if !ok {
			continue
		}
		v, err := json.Marshal(claimRec{ClientID: c.clientID, Expires: c.expires})
		if err != nil {
			return err
		}
		items = append(items, persist.Item{Key: claimKey(d), Value: v})
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
