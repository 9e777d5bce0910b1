package core

import (
	"context"

	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// Claim-window telemetry: ClaimBatch round trips made, and granted claims
// this process holds on units it has neither published nor released.
var (
	mClaimWindows = obs.GetCounter("coda_search_claim_windows_total")
	mClaimsHeld   = obs.GetGauge("coda_search_claims_held")
)

// claimAhead is how many granted-but-unstarted units the claim window
// holds per worker. It is refilled when half is left, so a client holds at
// most (claimAhead + 1) x Parallelism claims, running units included —
// also the most a peer that finishes first can be left waiting on.
const claimAhead = 2

// unitPlan is what the dispatcher knows about a unit: the first two while
// it is still deciding, the others what the worker that takes it must do.
type unitPlan uint8

const (
	planOpen      unitPlan = iota // a miss no claim has been asked for yet
	planDeferred                  // claim denied: a peer holds the key or has published it
	planPerUnit                   // no batch store: the worker runs the per-unit protocol, if there is a store
	planHit                       // a bulk lookup returned the score
	planGranted                   // this client holds the claim: compute, then publish or release
	planUnclaimed                 // deferred, SkipClaimed off: compute and publish without a claim
	planSkipped                   // deferred, SkipClaimed on
	planDegraded                  // a bulk call failed: compute locally, leave the store alone
)

// handoff is one unit on its way from the dispatcher to a worker.
type handoff struct {
	unit  int
	plan  unitPlan
	score float64 // planHit only
}

// claimWindow decides, on the dispatch goroutine, which unit a worker
// runs next. Against a BatchResultStore it looks every key up once, then
// claims the misses a window at a time as workers drain it, not all of
// them before the first one starts: a peer that joins finds unclaimed
// work, and a claim lives for one window's drain, not for the search.
// Without a batch store every unit is handed out in order.
type claimWindow struct {
	bs    BatchResultStore // nil: no batch protocol
	opts  SearchOptions
	units []searchUnit
	size  int    // most granted-but-unstarted units held
	drain func() // blocks until the workers have finished every unit handed out

	plan  []unitPlan // by unit
	out   []handoff  // settled units no worker has taken yet, oldest first
	ready int        // the planGranted ones among them

	nOpen, nDeferred int
	pos, dir         int // next unit to ask for, and which way the cursor walks
	denials          int // windows whose far edge was denied
	sinceLookup      int // claims granted since the last lookup
}

func newClaimWindow(ctx context.Context, opts SearchOptions, units []searchUnit, drain func()) *claimWindow {
	w := &claimWindow{opts: opts, units: units, size: claimAhead * opts.Parallelism, drain: drain,
		plan: make([]unitPlan, len(units)), dir: 1}
	if bs, ok := opts.Store.(BatchResultStore); ok && len(units) > 0 {
		w.bs, w.nOpen = bs, len(units)
		w.look(ctx, false)
		return w
	}
	for u := range units {
		w.settle(u, planPerUnit, 0)
	}
	return w
}

// next returns the next unit for a worker; false when all are handed
// out. It refills the window when half has drained: the dispatcher calls
// it right after starting a unit, so the claim round trip runs beside the
// workers' fold fits.
func (w *claimWindow) next(ctx context.Context) (handoff, bool) {
	for {
		if w.nOpen > 0 && w.ready <= w.size/2 {
			w.claim(ctx)
		}
		if len(w.out) > 0 {
			h := w.out[0]
			w.out = w.out[1:]
			if h.plan == planGranted {
				w.ready--
			}
			return h, true
		}
		if w.nOpen == 0 {
			if w.nDeferred == 0 {
				return handoff{}, false
			}
			w.settleDeferred(ctx)
		}
	}
}

func (w *claimWindow) settle(unit int, plan unitPlan, score float64) {
	w.plan[unit] = plan
	w.out = append(w.out, handoff{unit: unit, plan: plan, score: score})
}

// undecided lists the units still open or deferred, and their keys.
func (w *claimWindow) undecided() (units []int, keys []string) {
	units, keys = make([]int, 0, w.nOpen+w.nDeferred), make([]string, 0, w.nOpen+w.nDeferred)
	for u, p := range w.plan {
		if p == planOpen || p == planDeferred {
			units, keys = append(units, u), append(keys, w.units[u].key)
		}
	}
	return units, keys
}

// look settles every undecided unit that has a published score as a
// cache hit, in one LookupBatch.
func (w *claimWindow) look(ctx context.Context, deferred bool) {
	units, keys := w.undecided()
	lctx, sp := trace.Start(ctx, "search.bulk_lookup", trace.Int("keys", len(keys)))
	sp.SetComponent(trace.CompDARRWait)
	if deferred {
		sp.SetAttr(trace.Bool("deferred", true))
	}
	scores, err := w.bs.LookupBatch(lctx, keys)
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		sp.End()
		w.settleRest(planDegraded)
		return
	}
	sp.SetAttr(trace.Int("hits", len(scores)))
	sp.End()
	w.sinceLookup = 0
	for i, u := range units {
		if score, hit := scores[keys[i]]; hit {
			if w.plan[u] == planOpen {
				w.nOpen--
			} else {
				w.nDeferred--
			}
			w.settle(u, planHit, score)
		}
	}
}

// claim asks for enough open units, from the cursor on, to fill the
// window. This is the only place a search calls ClaimBatch.
func (w *claimWindow) claim(ctx context.Context) {
	var units []int
	var keys []string
	for n := w.size - w.ready; len(units) < n && w.nOpen > 0; w.pos += w.dir {
		if w.pos < 0 || w.pos >= len(w.plan) {
			w.pos, w.dir = 0, 1 // ran off an end with misses behind it: sweep them up from the start
		}
		if w.plan[w.pos] == planOpen {
			units, keys = append(units, w.pos), append(keys, w.units[w.pos].key)
			w.plan[w.pos] = planDeferred // until granted
			w.nOpen--
			w.nDeferred++
		}
	}
	cctx, sp := trace.Start(ctx, "search.bulk_claim", trace.Int("keys", len(keys)))
	sp.SetComponent(trace.CompDARRWait)
	mClaimWindows.Inc()
	granted, err := w.bs.ClaimBatch(cctx, keys)
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		sp.End()
		w.settleRest(planDegraded)
		return
	}
	n := len(w.out)
	for i, u := range units {
		if granted[keys[i]] {
			w.settle(u, planGranted, 0)
		}
	}
	n = len(w.out) - n
	w.ready += n
	w.nDeferred -= n
	w.sinceLookup += n
	mClaimsHeld.Add(float64(n))
	sp.SetAttr(trace.Int("granted", n), trace.Int("denied", len(units)-n))
	sp.End()
	// A denied key behind granted ones is a peer's leftover on a clear
	// path; a denied far edge is a peer working ahead of the cursor.
	if !granted[keys[len(keys)-1]] {
		w.moveAway(ctx)
	}
}

// moveAway takes the cursor away from the peer that denied the window's
// far edge. Every client starts ascending; the first denial sends it to
// the far end, walking back, so two clients meet in the middle and each
// stays on consecutive units (whose prefixes its own cache shares). Later
// denials send it to the middle of the longest run of misses nobody is
// known to hold — after a lookup, if anything was granted since the last,
// so that what the peer has published is not probed claim by claim.
func (w *claimWindow) moveAway(ctx context.Context) {
	if w.denials++; w.denials == 1 {
		w.pos, w.dir = len(w.plan)-1, -1
		return
	}
	if w.sinceLookup > 0 && w.nOpen > 0 {
		w.look(ctx, false)
	}
	end, longest, run := 0, 0, 0
	for u, p := range w.plan {
		if p != planOpen {
			run = 0
		} else if run++; run > longest {
			end, longest = u, run
		}
	}
	w.pos, w.dir = end-longest/2, 1
}

// settleDeferred runs once nothing but deferred units is left. It lets
// the workers finish — the peer gets that long to publish — and flushes
// the client's own publishes (a peer finishing beside it reads them the
// same way); one lookup then turns what the peer has published into cache
// hits, and the rest are skipped or, without SkipClaimed, computed unclaimed.
func (w *claimWindow) settleDeferred(ctx context.Context) {
	w.drain()
	flushPublishes(ctx, w.opts)
	w.look(ctx, true)
	plan := planUnclaimed
	if w.opts.SkipClaimed {
		plan = planSkipped
	}
	w.settleRest(plan)
}

// settleRest settles every undecided unit. After one failed bulk call
// that is as planDegraded: the search stops asking the store about them
// instead of failing once per window.
func (w *claimWindow) settleRest(plan unitPlan) {
	units, _ := w.undecided()
	for _, u := range units {
		w.settle(u, plan, 0)
	}
	w.nOpen, w.nDeferred = 0, 0
}

// abandon cleans up after a cancelled search, on a detached context:
// queued publishes are flushed so finished work reaches the repository,
// and the claims on units no worker took are released (workers release
// their own) — an unreleased claim blocks peers until its TTL.
func (w *claimWindow) abandon(ctx context.Context) {
	ctx = context.WithoutCancel(ctx)
	flushPublishes(ctx, w.opts)
	for _, h := range w.out {
		if h.plan == planGranted {
			releaseClaim(ctx, w.opts, w.units[h.unit].key, true)
			mClaimsHeld.Add(-1)
		}
	}
}
