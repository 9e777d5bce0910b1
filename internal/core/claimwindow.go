package core

import (
	"context"
	"time"

	"coda/internal/obs"
	"coda/internal/obs/trace"
)

// Claim-window telemetry: ClaimBatch round trips made, and granted claims
// this process holds on units it has neither published nor released.
var (
	mClaimWindows = obs.GetCounter("coda_search_claim_windows_total")
	mClaimsHeld   = obs.GetGauge("coda_search_claims_held")
)

// claimAhead is the claim window's floor: the granted-but-unstarted units
// it holds per worker while its store answers faster than workers take
// units. It is refilled when half is left, so such a client holds at most
// (claimAhead + 1) x Parallelism claims, running units included — also the
// most a peer that finishes first can be left waiting on. Against a slower
// store the window grows until it covers two claim round trips at the rate
// workers take units (resize), up to claimCap per worker: a client then
// holds at most (claimCap + 1) x Parallelism claims.
const claimAhead = 2

// claimCap is the most granted-but-unstarted units the claim window holds
// per worker, however slow its store.
const claimCap = 8

// recheckInterval is how long a search waits on the keys a peer holds when
// its store cannot say when they change: a store that is no Waiter (a
// decorator that forwards only the ResultStore methods), or a Wait that
// failed this round (a remote one whose retries ran out, or a server
// without the wait route). It equals the HTTP publish queue's flush
// interval, so a result a peer has queued is visible by the first
// re-check.
const recheckInterval = 250 * time.Millisecond

// unitPlan is what the dispatcher knows about a unit: the first two while
// it is still deciding, the others how it is settled — a hit or a skip on
// the dispatcher itself, the rest by the worker that computes it.
type unitPlan uint8

const (
	planOpen     unitPlan = iota // a miss no claim has been asked for yet
	planDeferred                 // claim denied: a peer holds the key or has published it
	planLocal                    // no store: compute
	planHit                      // a bulk lookup returned the score
	planGranted                  // this client holds the claim: compute, then publish or release
	planSkipped                  // deferred, and ctx ended before the peer settled it
	planDegraded                 // a bulk call failed: compute locally, leave the store alone
)

// handoff is one unit on its way from the dispatcher to a worker.
type handoff struct {
	unit  int
	plan  unitPlan
	score float64 // planHit only
}

// claimWindow decides, on the dispatch goroutine, which unit a worker
// runs next. Against a store it looks every key up once, then claims the
// misses a window at a time as workers drain it, not all of them before
// the first one starts: a peer that joins finds unclaimed work, and a
// claim lives for one window's drain, not for the search. What a peer
// holds it waits for, so every unit ends settled. Without a store every
// unit is settled at once, to be computed locally.
//
// Units are claimed and handed out in dispatch order (dispatchOrder),
// built when the first unit needs a claim or a worker, so a search the
// lookup settles builds none. The cursor and the runs of misses it seeks
// are positions in that order; plan, keys and results are by unit.
type claimWindow struct {
	opts  SearchOptions
	pl    *plan  // its keys are by unit
	in    Shape  // the search dataset's, for the dispatch order
	size  int    // most granted-but-unstarted units held (resize)
	drain func() // blocks until the workers have finished every unit handed out

	order  []int // by position: the unit there; nil is plan order
	sorted bool  // order is built

	plan  []unitPlan // by unit
	out   []handoff  // settled units no worker has taken yet, oldest first
	ready int        // the planGranted ones among them

	nOpen, nDeferred int
	pos, dir         int  // next position to ask for, and which way the cursor walks
	denials          int  // windows whose far edge was denied
	sinceLookup      int  // claims granted since the last lookup
	gaveUp           bool // ctx ended while waiting on a peer, after every worker had finished

	rtt       [2]time.Duration // the last two ClaimBatch round trips, latest first
	claimedAt time.Time        // when the last claim returned
	handed    int              // granted units handed out since
}

func newClaimWindow(ctx context.Context, opts SearchOptions, pl *plan, in Shape, drain func()) *claimWindow {
	// Every unit is settled once, so out never outgrows the plan.
	n := len(pl.keys)
	w := &claimWindow{opts: opts, pl: pl, in: in, size: claimAhead * opts.Parallelism, drain: drain,
		plan: make([]unitPlan, n), out: make([]handoff, 0, n), dir: 1}
	if opts.Store != nil && n > 0 {
		w.nOpen = n
		w.look(ctx, false)
		return w
	}
	w.sortUnits(ctx)
	for pos := range n {
		w.settle(w.unit(pos), planLocal, 0)
	}
	return w
}

// sortUnits builds the dispatch order, once.
func (w *claimWindow) sortUnits(ctx context.Context) {
	if w.sorted {
		return
	}
	w.sorted = true
	w.order = w.pl.dispatchOrder(w.in)
	if p, ok := ctx.Value(permuteKey{}).(*permutation); ok {
		if w.order == nil {
			w.order = make([]int, len(w.plan))
			for i := range w.order {
				w.order[i] = i
			}
		}
		p.apply(w.order)
	}
}

// unit is the unit at position pos of the dispatch order.
func (w *claimWindow) unit(pos int) int {
	if w.order == nil {
		return pos
	}
	return w.order[pos]
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
				w.handed++
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

// undecided lists the units still open or deferred, and their keys. While
// every unit is — at a search's first lookup — units is nil and keys is
// w.pl.keys itself: the i-th key is unit i's.
func (w *claimWindow) undecided() (units []int, keys []string) {
	if n := w.nOpen + w.nDeferred; n < len(w.pl.keys) {
		units, keys = make([]int, 0, n), make([]string, 0, n)
		for u, p := range w.plan {
			if p == planOpen || p == planDeferred {
				units, keys = append(units, u), append(keys, w.pl.keys[u])
			}
		}
		return units, keys
	}
	return nil, w.pl.keys
}

// look settles every undecided unit that has a published score as a
// cache hit, in one LookupBatch.
func (w *claimWindow) look(ctx context.Context, deferred bool) {
	units, keys := w.undecided()
	lctx, sp := trace.Start(ctx, "search.bulk_lookup")
	if sp != nil {
		sp.SetComponent(trace.CompDARRWait)
		sp.SetAttr(trace.Int("keys", len(keys)))
		if deferred {
			sp.SetAttr(trace.Bool("deferred", true))
		}
	}
	scores, err := w.opts.Store.LookupBatch(lctx, keys)
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		sp.End()
		w.settleRest(ctx, planDegraded)
		return
	}
	if sp != nil {
		sp.SetAttr(trace.Int("hits", len(scores)))
		sp.End()
	}
	w.sinceLookup = 0
	for i, key := range keys {
		if score, hit := scores[key]; hit {
			u := i
			if units != nil {
				u = units[i]
			}
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
	w.sortUnits(ctx)
	w.resize(time.Now())
	var units []int
	var keys []string
	for n := w.size - w.ready; len(units) < n && w.nOpen > 0; w.pos += w.dir {
		if w.pos < 0 || w.pos >= len(w.plan) {
			w.pos, w.dir = 0, 1 // ran off an end with misses behind it: sweep them up from the start
		}
		if u := w.unit(w.pos); w.plan[u] == planOpen {
			units, keys = append(units, u), append(keys, w.pl.keys[u])
			w.plan[u] = planDeferred // until granted
			w.nOpen--
			w.nDeferred++
		}
	}
	if len(units) == 0 {
		return // the window shrank below what it holds
	}
	cctx, sp := trace.Start(ctx, "search.bulk_claim", trace.Int("keys", len(keys)))
	sp.SetComponent(trace.CompDARRWait)
	mClaimWindows.Inc()
	start := time.Now()
	granted, err := w.opts.Store.ClaimBatch(cctx, keys)
	w.rtt[0], w.rtt[1] = time.Since(start), w.rtt[0]
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
		sp.End()
		w.settleRest(ctx, planDegraded)
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
	w.claimedAt, w.handed = time.Now(), 0
}

// resize sizes the window for the claim about to be made: claimAhead per
// worker, grown until it covers two claim round trips at the rate workers
// took granted units since the last claim, up to claimCap per worker. The
// round trip is the shorter of the last two, so one stalled call does not
// grow the window, and none is known at the first refill, whose rate is
// that of workers that all stood idle.
func (w *claimWindow) resize(now time.Time) {
	floor := claimAhead * w.opts.Parallelism
	w.size = floor
	rtt := min(w.rtt[0], w.rtt[1])
	if rtt <= 0 || w.handed == 0 {
		return
	}
	took := max(now.Sub(w.claimedAt), 1)
	need := int((2*rtt*time.Duration(w.handed) + took - 1) / took) // rounded up
	w.size = min(max(need, floor), claimCap*w.opts.Parallelism)
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
	for pos := range w.plan {
		if w.plan[w.unit(pos)] != planOpen {
			run = 0
		} else if run++; run > longest {
			end, longest = pos, run
		}
	}
	w.pos, w.dir = end-longest/2, 1
}

// settleDeferred runs once nothing but deferred units is left. It lets
// the workers finish — the peer gets that long to publish — and flushes
// the client's own publishes (a peer finishing beside it reads them the
// same way); a lookup over the deferred keys then turns what peers have
// published into cache hits. The rest a peer still holds: the search waits
// until one of them is published, released or expired, and opens them to
// be claimed again, so a dead peer's units are computed once its claim
// expires. If ctx ends first, they are skipped.
func (w *claimWindow) settleDeferred(ctx context.Context) {
	w.drain()
	flushPublishes(ctx, w.opts)
	w.look(ctx, true)
	if w.nDeferred == 0 {
		return
	}
	_, keys := w.undecided()
	if ctx.Err() == nil {
		if w.wait(ctx, keys) {
			for u, p := range w.plan {
				if p == planDeferred {
					w.plan[u] = planOpen
				}
			}
			w.nOpen, w.nDeferred = w.nDeferred, 0
			return
		}
		w.gaveUp = true
	}
	w.settleRest(ctx, planSkipped)
}

// wait blocks until a peer may have settled one of keys: through the
// store's Wait, or for recheckInterval when the store has none or its Wait
// failed. It reports false when ctx ended first.
func (w *claimWindow) wait(ctx context.Context, keys []string) bool {
	wctx, sp := trace.Start(ctx, "search.wait", trace.Int("keys", len(keys)))
	sp.SetComponent(trace.CompDARRWait)
	defer sp.End()
	if s, ok := w.opts.Store.(Waiter); ok {
		err := s.Wait(wctx, keys)
		if err == nil || ctx.Err() != nil {
			return ctx.Err() == nil
		}
		// A failed Wait is not the search giving up: the units are still
		// a peer's to settle, so this round waits on the timer.
		sp.SetAttr(trace.String("error", err.Error()))
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(recheckInterval):
		return true
	}
}

// settleRest settles every undecided unit, in dispatch order. After one
// failed bulk call that is as planDegraded: the search stops asking the
// store about them instead of failing once per window.
func (w *claimWindow) settleRest(ctx context.Context, plan unitPlan) {
	w.sortUnits(ctx)
	for pos := range w.plan {
		if u := w.unit(pos); w.plan[u] == planOpen || w.plan[u] == planDeferred {
			w.settle(u, plan, 0)
		}
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
			releaseClaim(ctx, w.opts, w.pl.keys[h.unit], true)
			mClaimsHeld.Add(-1)
		}
	}
}
