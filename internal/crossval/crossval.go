// Package crossval implements the cross-validation strategies the searches
// run, from those the paper names in Section IV-B: K-fold, Monte-Carlo
// (shuffle split), and the TimeSeriesSlidingSplit of Figure 12 which keeps
// a buffer window between training and validation ranges so that no future
// information leaks into training.
package crossval

import (
	"fmt"
	"math/rand"
)

// Split is one train/validation partition as index sets into the dataset.
type Split struct {
	Train []int
	Test  []int
}

// Splitter produces a sequence of train/test splits for n samples. A
// Splitter carries its own configuration; Splits must be deterministic for
// a fixed rng seed so cooperating clients reproduce identical folds.
type Splitter interface {
	// Splits returns the train/test index partitions for n samples.
	Splits(n int, rng *rand.Rand) ([]Split, error)
	// Spec returns a canonical string describing the strategy and its
	// parameters, used in DARR keys so clients agree on evaluation setup.
	Spec() string
}

// KFold is the classic K-fold cross validation of Figure 4: the data is
// randomly partitioned into K equally-sized folds without replacement, each
// fold serving once as the validation set.
type KFold struct {
	K       int
	Shuffle bool // shuffle sample order before folding (default recommended for iid data)
}

// Splits implements Splitter.
func (k KFold) Splits(n int, rng *rand.Rand) ([]Split, error) {
	if k.K < 2 {
		return nil, fmt.Errorf("crossval: KFold needs K >= 2, got %d", k.K)
	}
	if n < k.K {
		return nil, fmt.Errorf("crossval: %d samples cannot form %d folds", n, k.K)
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if k.Shuffle {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	}
	splits := make([]Split, k.K)
	// Distribute remainder across the first n%K folds, like sklearn.
	base, rem := n/k.K, n%k.K
	start := 0
	for f := 0; f < k.K; f++ {
		size := base
		if f < rem {
			size++
		}
		test := append([]int(nil), order[start:start+size]...)
		train := make([]int, 0, n-size)
		train = append(train, order[:start]...)
		train = append(train, order[start+size:]...)
		splits[f] = Split{Train: train, Test: test}
		start += size
	}
	return splits, nil
}

// Spec implements Splitter.
func (k KFold) Spec() string { return fmt.Sprintf("kfold(k=%d,shuffle=%t)", k.K, k.Shuffle) }

// ShuffleSplit is Monte-Carlo cross validation: Iterations independent
// random train/test partitions with the given test fraction.
type ShuffleSplit struct {
	Iterations int
	TestFrac   float64
}

// Splits implements Splitter.
func (s ShuffleSplit) Splits(n int, rng *rand.Rand) ([]Split, error) {
	if s.Iterations < 1 {
		return nil, fmt.Errorf("crossval: ShuffleSplit needs >= 1 iteration, got %d", s.Iterations)
	}
	if s.TestFrac <= 0 || s.TestFrac >= 1 {
		return nil, fmt.Errorf("crossval: ShuffleSplit test fraction %v outside (0,1)", s.TestFrac)
	}
	testSize := int(float64(n) * s.TestFrac)
	if testSize == 0 || testSize == n {
		return nil, fmt.Errorf("crossval: ShuffleSplit of %d samples at %v leaves an empty side", n, s.TestFrac)
	}
	splits := make([]Split, s.Iterations)
	for it := range splits {
		perm := rng.Perm(n)
		splits[it] = Split{
			Test:  append([]int(nil), perm[:testSize]...),
			Train: append([]int(nil), perm[testSize:]...),
		}
	}
	return splits, nil
}

// Spec implements Splitter.
func (s ShuffleSplit) Spec() string {
	return fmt.Sprintf("shufflesplit(iter=%d,test=%g)", s.Iterations, s.TestFrac)
}

// SlidingSplit is the TimeSeriesSlidingSplit of Figure 12: contiguous
// training and validation windows separated by a buffer, sliding forward in
// time for K iterations so that validation data always lies strictly after
// (train end + buffer).
//
// With Stride 0 the K windows are spread evenly from the first sample to
// the last. With a Stride, window j starts at sample j × Stride and the
// split takes the last K windows that fit, so a series that grows by one
// Stride keeps K−1 of its windows, index for index, and gains one.
type SlidingSplit struct {
	K         int // number of sliding iterations
	TrainSize int // samples per training window
	TestSize  int // samples per validation window
	Buffer    int // gap between train end and validation start (>= forecast horizon)
	Stride    int // samples between window starts; 0 spreads them evenly
}

// Splits implements Splitter. Index order inside each split is increasing in
// time; no shuffling ever occurs.
func (s SlidingSplit) Splits(n int, _ *rand.Rand) ([]Split, error) {
	if s.K < 1 || s.TrainSize < 1 || s.TestSize < 1 || s.Buffer < 0 || s.Stride < 0 {
		return nil, fmt.Errorf("crossval: invalid sliding split %+v", s)
	}
	window := s.TrainSize + s.Buffer + s.TestSize
	if window > n {
		return nil, fmt.Errorf("crossval: sliding window %d exceeds %d samples", window, n)
	}
	maxStart := n - window
	first := 0 // the stride index of the first window
	if s.Stride > 0 {
		fit := maxStart/s.Stride + 1
		if fit < s.K {
			return nil, fmt.Errorf("crossval: %d samples fit %d windows %d apart, want %d", n, fit, s.Stride, s.K)
		}
		first = fit - s.K
	}
	splits := make([]Split, s.K)
	for i := 0; i < s.K; i++ {
		// Without a stride, slide so the last window ends at the last
		// sample and space the earlier ones evenly; with K == 1 the single
		// window starts at 0.
		start := 0
		switch {
		case s.Stride > 0:
			start = (first + i) * s.Stride
		case s.K > 1:
			start = i * maxStart / (s.K - 1)
		}
		train := make([]int, s.TrainSize)
		for j := range train {
			train[j] = start + j
		}
		test := make([]int, s.TestSize)
		for j := range test {
			test[j] = start + s.TrainSize + s.Buffer + j
		}
		splits[i] = Split{Train: train, Test: test}
	}
	return splits, nil
}

// Spec implements Splitter.
func (s SlidingSplit) Spec() string {
	if s.Stride > 0 {
		return fmt.Sprintf("slidingsplit(k=%d,train=%d,test=%d,buffer=%d,stride=%d)", s.K, s.TrainSize, s.TestSize, s.Buffer, s.Stride)
	}
	return fmt.Sprintf("slidingsplit(k=%d,train=%d,test=%d,buffer=%d)", s.K, s.TrainSize, s.TestSize, s.Buffer)
}
