// Package crossval implements the cross-validation strategies the paper
// names in Section IV-B: K-fold, Monte-Carlo (shuffle split), train-test
// split, nested K-fold, and the TimeSeriesSlidingSplit of Figure 12 which
// keeps a buffer window between training and validation ranges so that no
// future information leaks into training.
package crossval

import (
	"fmt"
	"math/rand"
	"sort"
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

// TrainTest is a single randomized train/test split.
type TrainTest struct {
	TestFrac float64
}

// Splits implements Splitter.
func (s TrainTest) Splits(n int, rng *rand.Rand) ([]Split, error) {
	sp, err := ShuffleSplit{Iterations: 1, TestFrac: s.TestFrac}.Splits(n, rng)
	if err != nil {
		return nil, fmt.Errorf("crossval: train-test: %w", err)
	}
	return sp, nil
}

// Spec implements Splitter.
func (s TrainTest) Spec() string { return fmt.Sprintf("traintest(test=%g)", s.TestFrac) }

// NestedKFold performs K-fold where each outer training set is itself
// splittable by an inner K-fold; Splits returns the outer splits, and
// InnerSplits produces the inner folds for a given outer training set.
// The outer loop estimates generalization while the inner loop tunes
// hyperparameters.
type NestedKFold struct {
	OuterK, InnerK int
}

// Splits implements Splitter (outer folds).
func (nk NestedKFold) Splits(n int, rng *rand.Rand) ([]Split, error) {
	sp, err := (KFold{K: nk.OuterK, Shuffle: true}).Splits(n, rng)
	if err != nil {
		return nil, fmt.Errorf("crossval: nested outer: %w", err)
	}
	return sp, nil
}

// InnerSplits partitions one outer training index set into inner folds.
// Returned indices refer to the original dataset (not positions within
// outerTrain).
func (nk NestedKFold) InnerSplits(outerTrain []int, rng *rand.Rand) ([]Split, error) {
	inner, err := (KFold{K: nk.InnerK, Shuffle: true}).Splits(len(outerTrain), rng)
	if err != nil {
		return nil, fmt.Errorf("crossval: nested inner: %w", err)
	}
	for i := range inner {
		for j, p := range inner[i].Train {
			inner[i].Train[j] = outerTrain[p]
		}
		for j, p := range inner[i].Test {
			inner[i].Test[j] = outerTrain[p]
		}
	}
	return inner, nil
}

// Spec implements Splitter.
func (nk NestedKFold) Spec() string {
	return fmt.Sprintf("nestedkfold(outer=%d,inner=%d)", nk.OuterK, nk.InnerK)
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

// ExpandingSplit is the classic "Time Series Split" the paper lists as an
// alternate strategy: the training window grows from the start of the
// series while a fixed-size validation window (separated by Buffer) slides
// toward the end — every iteration trains on all data before its
// validation range.
type ExpandingSplit struct {
	K        int // iterations
	TestSize int // validation samples per iteration
	Buffer   int // gap between train end and validation start (>= horizon)
	MinTrain int // smallest training window (default TestSize)
}

// Splits implements Splitter; index order is time order, never shuffled.
func (s ExpandingSplit) Splits(n int, _ *rand.Rand) ([]Split, error) {
	if s.K < 1 || s.TestSize < 1 || s.Buffer < 0 {
		return nil, fmt.Errorf("crossval: invalid expanding split %+v", s)
	}
	minTrain := s.MinTrain
	if minTrain < 1 {
		minTrain = s.TestSize
	}
	needed := minTrain + s.Buffer + s.K*s.TestSize
	if needed > n {
		return nil, fmt.Errorf("crossval: expanding split needs %d samples, have %d", needed, n)
	}
	splits := make([]Split, s.K)
	for i := 0; i < s.K; i++ {
		testEnd := n - (s.K-1-i)*s.TestSize
		testStart := testEnd - s.TestSize
		trainEnd := testStart - s.Buffer
		train := make([]int, trainEnd)
		for j := range train {
			train[j] = j
		}
		test := make([]int, s.TestSize)
		for j := range test {
			test[j] = testStart + j
		}
		splits[i] = Split{Train: train, Test: test}
	}
	return splits, nil
}

// Spec implements Splitter.
func (s ExpandingSplit) Spec() string {
	return fmt.Sprintf("expandingsplit(k=%d,test=%d,buffer=%d)", s.K, s.TestSize, s.Buffer)
}

// StratifiedKFold partitions samples into K folds while preserving each
// class's proportion per fold — essential under the class imbalances
// Section II warns about (rare failure cases vs many successes), where
// plain K-fold can produce folds with no positive samples at all.
// Labels must be provided at construction (the Splitter interface itself
// only sees sample counts).
type StratifiedKFold struct {
	K      int
	Labels []float64
}

// Splits implements Splitter. Within each class, samples are shuffled and
// dealt round-robin across folds.
func (s StratifiedKFold) Splits(n int, rng *rand.Rand) ([]Split, error) {
	if s.K < 2 {
		return nil, fmt.Errorf("crossval: StratifiedKFold needs K >= 2, got %d", s.K)
	}
	if len(s.Labels) != n {
		return nil, fmt.Errorf("crossval: StratifiedKFold has %d labels for %d samples", len(s.Labels), n)
	}
	byClass := map[float64][]int{}
	for i, l := range s.Labels {
		byClass[l] = append(byClass[l], i)
	}
	// Deterministic class order for reproducibility.
	classes := make([]float64, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Float64s(classes)
	for _, c := range classes {
		if len(byClass[c]) < s.K {
			return nil, fmt.Errorf("crossval: class %v has %d samples, fewer than %d folds", c, len(byClass[c]), s.K)
		}
	}
	folds := make([][]int, s.K)
	for _, c := range classes {
		idx := byClass[c]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		for pos, i := range idx {
			f := pos % s.K
			folds[f] = append(folds[f], i)
		}
	}
	splits := make([]Split, s.K)
	for f := range splits {
		test := append([]int(nil), folds[f]...)
		train := make([]int, 0, n-len(test))
		for other := range folds {
			if other != f {
				train = append(train, folds[other]...)
			}
		}
		splits[f] = Split{Train: train, Test: test}
	}
	return splits, nil
}

// Spec implements Splitter.
func (s StratifiedKFold) Spec() string { return fmt.Sprintf("stratifiedkfold(k=%d)", s.K) }
