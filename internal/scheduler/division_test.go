package scheduler

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coda/internal/core"
	"coda/internal/darr"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
)

// divisionGraph is 21 cheap units: 3 scalers x (linreg + knn at 3 values
// of k + a tree at 3 depths) — more than four clients can hold claims on
// at once, so every one of them finds open work.
func divisionGraph() (*core.Graph, map[string][]float64) {
	g := core.NewGraph()
	g.AddFeatureScalers(preprocess.NewStandardScaler(), preprocess.NewMinMaxScaler(), preprocess.NewNoOp())
	g.AddRegressionModels(
		mlmodels.NewLinearRegression(),
		mlmodels.NewKNN(mlmodels.KNNRegression, 5),
		mlmodels.NewDecisionTree(mlmodels.TreeRegression),
	)
	return g, map[string][]float64{"knn__k": {3, 5, 7}, "decisiontree__max_depth": {2, 4, 6}}
}

const divisionUnits = 21

// grantSignal is a darr.Client that reports its first granted claim.
type grantSignal struct {
	*darr.Client
	once    sync.Once
	granted func()
}

func (g *grantSignal) ClaimBatch(ctx context.Context, keys []string) (map[string]bool, error) {
	out, err := g.Client.ClaimBatch(ctx, keys)
	for _, ok := range out {
		if ok {
			g.once.Do(g.granted)
			break
		}
	}
	return out, err
}

// TestClaimWindowDividesWork: with a claim window no client can take the
// whole grid before its peers arrive. Every client's first fold fit is
// held until every client has been granted a window; then each has
// computed something, the fleet has computed every unit exactly once,
// and one follow-up search gives every client the same table.
func TestClaimWindowDividesWork(t *testing.T) {
	ds := regDS(t)
	for _, clients := range []int{2, 4} {
		t.Run(fmt.Sprint(clients, "-clients"), func(t *testing.T) {
			repo := darr.NewRepo(nil, time.Minute)
			var waiting atomic.Int32
			waiting.Store(int32(clients))
			everyoneGranted := make(chan struct{})
			opts := make([]core.SearchOptions, clients)
			for c := range opts {
				o := baseOpts(t)
				o.Parallelism = 1
				o.SkipClaimed = true
				o.Store = &grantSignal{
					Client: &darr.Client{Repo: repo, ClientID: fmt.Sprint("client-", c), Metric: o.Scorer.Name},
					granted: func() {
						if waiting.Add(-1) == 0 {
							close(everyoneGranted)
						}
					},
				}
				base := o.Scorer.Fn
				o.Scorer.Fn = func(y, yhat []float64) (float64, error) {
					<-everyoneGranted
					return base(y, yhat)
				}
				opts[c] = o
			}
			search := func(c int) *core.SearchResult {
				g, grid := divisionGraph()
				o := opts[c]
				o.ParamGrid = grid
				res, err := core.Search(context.Background(), g, ds, o)
				if err != nil {
					t.Error(err)
					return &core.SearchResult{}
				}
				return res
			}
			results := make([]*core.SearchResult, clients)
			var wg sync.WaitGroup
			for c := range results {
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[c] = search(c)
				}()
			}
			wg.Wait()
			computed := 0
			for c, res := range results {
				if res.Computed < 1 {
					t.Errorf("client %d computed nothing (cache hits %d, skipped %d)", c, res.CacheHits, res.Skipped)
				}
				if got := res.Computed + res.CacheHits + res.Skipped; got != divisionUnits {
					t.Errorf("client %d accounts for %d of %d units", c, got, divisionUnits)
				}
				computed += res.Computed
			}
			if computed != divisionUnits || repo.Len() != divisionUnits {
				t.Fatalf("fleet computed %d units, DARR holds %d, want %d each", computed, repo.Len(), divisionUnits)
			}
			if n := repo.ActiveClaims(); n != 0 {
				t.Errorf("%d claims outstanding after every client finished", n)
			}
			var best *core.UnitResult
			for c := range results {
				res := search(c)
				if res.CacheHits != divisionUnits || res.Best == nil {
					t.Fatalf("client %d follow-up: %d hits of %d, best %v", c, res.CacheHits, divisionUnits, res.Best)
				}
				if best == nil {
					best = res.Best
				}
				if res.Best.Spec != best.Spec || math.Float64bits(res.Best.Mean) != math.Float64bits(best.Mean) {
					t.Errorf("client %d best %s %v, client 0 %s %v", c, res.Best.Spec, res.Best.Mean, best.Spec, best.Mean)
				}
			}
		})
	}
}

// deadClient is a darr.Client whose process dies mid-search: the search is
// cancelled from its first fold fit and, when silent, none of its
// releases reach the repository.
type deadClient struct {
	*darr.Client
	silent bool
}

func (d *deadClient) Release(ctx context.Context, key string) error {
	if d.silent {
		return nil
	}
	return d.Client.Release(ctx, key)
}

// TestDeadPeerCostsAtMostItsWindow: a client cancelled mid-window releases
// the claims it holds; one killed before it could leaves a window's worth
// behind, which blocks a peer for the claim TTL and no longer — the peer's
// next search after the TTL computes exactly those units, and no unit is
// ever computed twice.
func TestDeadPeerCostsAtMostItsWindow(t *testing.T) {
	ds := regDS(t)
	for _, silent := range []bool{false, true} {
		t.Run(fmt.Sprint("silent=", silent), func(t *testing.T) {
			now := time.Unix(1_700_000_000, 0)
			var mu sync.Mutex
			repo := darr.NewRepo(func() time.Time {
				mu.Lock()
				defer mu.Unlock()
				return now
			}, time.Minute)
			search := func(ctx context.Context, store core.ResultStore, scorer func(y, yhat []float64) (float64, error)) (*core.SearchResult, error) {
				g, grid := divisionGraph()
				o := baseOpts(t)
				o.ParamGrid = grid
				o.Store = store
				o.SkipClaimed = true
				if scorer != nil {
					o.Scorer.Fn = scorer
				}
				return core.Search(ctx, g, ds, o)
			}

			ctx, die := context.WithCancel(context.Background())
			dead := &deadClient{Client: &darr.Client{Repo: repo, ClientID: "dead", Metric: "rmse"}, silent: silent}
			base := baseOpts(t).Scorer.Fn
			if _, err := search(ctx, dead, func(y, yhat []float64) (float64, error) {
				die()
				return base(y, yhat)
			}); err == nil {
				t.Fatal("want the cancelled search to fail")
			}
			left := repo.ActiveClaims()
			done := repo.Len()
			if !silent {
				if left != 0 {
					t.Fatalf("a cancelled search leaked %d claims", left)
				}
			} else if window := (4 + 1) * baseOpts(t).Parallelism; left < 1 || left > window { // claimAhead is at most 4
				t.Fatalf("the killed client left %d claims, want 1..%d (one window)", left, window)
			}

			peer := &darr.Client{Repo: repo, ClientID: "peer", Metric: "rmse"}
			first, err := search(context.Background(), peer, nil)
			if err != nil {
				t.Fatal(err)
			}
			if first.Skipped != left || first.Computed != divisionUnits-done-left {
				t.Fatalf("peer beside the dead client's claims: computed %d skipped %d, want %d and %d",
					first.Computed, first.Skipped, divisionUnits-done-left, left)
			}
			mu.Lock()
			now = now.Add(time.Minute + time.Second)
			mu.Unlock()
			second, err := search(context.Background(), peer, nil)
			if err != nil {
				t.Fatal(err)
			}
			if second.Computed != left || second.Skipped != 0 || second.CacheHits != divisionUnits-left {
				t.Fatalf("peer after the TTL: computed %d skipped %d hits %d, want %d, 0, %d",
					second.Computed, second.Skipped, second.CacheHits, left, divisionUnits-left)
			}
			if _, _, puts := repo.Stats(); puts != divisionUnits || repo.Len() != divisionUnits {
				t.Fatalf("%d publishes for %d records and %d units: redundancy must be 1", puts, repo.Len(), divisionUnits)
			}
		})
	}
}
