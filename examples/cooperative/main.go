// Cooperative analytics: four clients analyze the same dataset (Figure 2).
// Without the DARR each repeats all 16 pipeline evaluations; with it they
// claim non-overlapping units, share results, and the fleet computes each
// unit once. The example also shows the versioned data tier: the dataset is
// distributed to clients through a home data store, and a small update
// travels as a delta instead of the full object (Section III).
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"coda/internal/core"
	"coda/internal/crossval"
	"coda/internal/darr"
	"coda/internal/dataset"
	"coda/internal/metrics"
	"coda/internal/mlmodels"
	"coda/internal/preprocess"
	"coda/internal/store"
)

func main() {
	rng := rand.New(rand.NewSource(21))
	ds, _, err := dataset.MakeRegression(dataset.RegressionSpec{
		Samples: 200, Features: 5, Informative: 3, Noise: 2,
	}, rng)
	if err != nil {
		log.Fatal(err)
	}

	// --- Part 1: the data tier distributes the dataset to client nodes.
	var csv bytes.Buffer
	if err := ds.WriteCSV(&csv); err != nil {
		log.Fatal(err)
	}
	var home store.ObjectStore = store.NewHomeStore(store.Options{})
	if _, err := home.Put("train.csv", csv.Bytes()); err != nil {
		log.Fatal(err)
	}

	replica := store.NewReplica()
	if err := replica.Pull(home, "train.csv"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("client pulled %d bytes (version %d)\n", replica.BytesReceived(), replica.VersionOf("train.csv"))

	// A small correction lands at the home store; the client syncs again
	// and receives a delta, not the whole file.
	fixed := append([]byte(nil), csv.Bytes()...)
	copy(fixed[100:108], []byte("3.141592"))
	if _, err := home.Put("train.csv", fixed); err != nil {
		log.Fatal(err)
	}
	before := replica.BytesReceived()
	if err := replica.Pull(home, "train.csv"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("update of %d-byte file cost only %d wire bytes (delta encoding)\n\n",
		len(fixed), replica.BytesReceived()-before)

	// --- Part 2: cooperative vs independent search over the same graph.
	build := func() *core.Graph {
		g := core.NewGraph()
		g.AddFeatureScalers(
			preprocess.NewStandardScaler(),
			preprocess.NewMinMaxScaler(),
			preprocess.NewRobustScaler(),
			preprocess.NewNoOp(),
		)
		g.AddRegressionModels(
			mlmodels.NewLinearRegression(),
			mlmodels.NewKNN(mlmodels.KNNRegression, 5),
			mlmodels.NewDecisionTree(mlmodels.TreeRegression),
			mlmodels.NewRandomForest(mlmodels.TreeRegression, 20),
		)
		return g
	}
	scorer, err := metrics.ScorerByName("rmse")
	if err != nil {
		log.Fatal(err)
	}
	opts := core.SearchOptions{
		Splitter:    crossval.KFold{K: 5, Shuffle: true},
		Scorer:      scorer,
		Seed:        1,
		Parallelism: 2,
	}

	// Four clients, 10 ms apart, each one search: on its own, or through
	// one shared DARR.
	const clients = 4
	for _, cooperate := range []bool{false, true} {
		repo := darr.NewRepo(nil, time.Minute)
		results := make([]*core.SearchResult, clients)
		var wg sync.WaitGroup
		for c := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Duration(c) * 10 * time.Millisecond)
				o := opts
				if cooperate {
					o.Store = &darr.Client{Repo: repo, ClientID: fmt.Sprint("client-", c), Metric: scorer.Name}
				}
				res, err := core.Search(context.Background(), build(), ds, o)
				if err != nil {
					log.Fatal(err)
				}
				results[c] = res
			}()
		}
		wg.Wait()
		computed := 0
		for _, res := range results {
			computed += res.Computed
		}
		unique := len(results[0].Units)
		mode := "independent"
		if cooperate {
			mode = "cooperative (DARR)"
		}
		fmt.Printf("%-18s %d clients, %2d unique units -> %2d computed (redundancy %.2fx)\n",
			mode, clients, unique, computed, float64(computed)/float64(unique))
		if cooperate {
			fmt.Printf("  DARR now holds %d shared results; per-client view:\n", repo.Len())
			for c, res := range results {
				fmt.Printf("    client-%d: computed %d, reused %d, best %s\n",
					c, res.Computed, res.CacheHits, res.Best.Spec)
			}
		}
	}
}
