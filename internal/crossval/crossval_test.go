package crossval

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func checkPartition(t *testing.T, n int, sp Split) {
	t.Helper()
	seen := make([]bool, n)
	for _, i := range sp.Train {
		if i < 0 || i >= n {
			t.Fatalf("train index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	for _, i := range sp.Test {
		if i < 0 || i >= n {
			t.Fatalf("test index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("index %d in both train and test", i)
		}
		seen[i] = true
	}
}

func TestKFoldPartitionLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{10, 17, 100} {
		for _, k := range []int{2, 3, 5} {
			splits, err := (KFold{K: k, Shuffle: true}).Splits(n, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(splits) != k {
				t.Fatalf("got %d folds, want %d", len(splits), k)
			}
			// Every sample appears in exactly one test fold across all splits.
			testCount := make([]int, n)
			for _, sp := range splits {
				checkPartition(t, n, sp)
				if len(sp.Train)+len(sp.Test) != n {
					t.Fatalf("fold does not cover all samples: %d+%d != %d", len(sp.Train), len(sp.Test), n)
				}
				for _, i := range sp.Test {
					testCount[i]++
				}
			}
			for i, c := range testCount {
				if c != 1 {
					t.Fatalf("n=%d k=%d: sample %d in %d test folds, want 1", n, k, i, c)
				}
			}
			// Fold sizes differ by at most one.
			minSz, maxSz := n, 0
			for _, sp := range splits {
				if len(sp.Test) < minSz {
					minSz = len(sp.Test)
				}
				if len(sp.Test) > maxSz {
					maxSz = len(sp.Test)
				}
			}
			if maxSz-minSz > 1 {
				t.Fatalf("fold sizes unbalanced: min=%d max=%d", minSz, maxSz)
			}
		}
	}
}

func TestKFoldErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := (KFold{K: 1}).Splits(10, rng); err == nil {
		t.Fatal("want K>=2 error")
	}
	if _, err := (KFold{K: 5}).Splits(3, rng); err == nil {
		t.Fatal("want too-few-samples error")
	}
}

func TestKFoldDeterministicForSeed(t *testing.T) {
	a, err := (KFold{K: 4, Shuffle: true}).Splits(50, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := (KFold{K: 4, Shuffle: true}).Splits(50, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	for f := range a {
		for i := range a[f].Test {
			if a[f].Test[i] != b[f].Test[i] {
				t.Fatal("KFold not deterministic for identical seeds")
			}
		}
	}
}

func TestShuffleSplit(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	splits, err := (ShuffleSplit{Iterations: 8, TestFrac: 0.25}).Splits(40, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 8 {
		t.Fatalf("got %d iterations", len(splits))
	}
	for _, sp := range splits {
		checkPartition(t, 40, sp)
		if len(sp.Test) != 10 || len(sp.Train) != 30 {
			t.Fatalf("sizes %d/%d", len(sp.Train), len(sp.Test))
		}
	}
	if _, err := (ShuffleSplit{Iterations: 0, TestFrac: 0.2}).Splits(10, rng); err == nil {
		t.Fatal("want iterations error")
	}
	if _, err := (ShuffleSplit{Iterations: 1, TestFrac: 0}).Splits(10, rng); err == nil {
		t.Fatal("want fraction error")
	}
	if _, err := (ShuffleSplit{Iterations: 1, TestFrac: 0.01}).Splits(10, rng); err == nil {
		t.Fatal("want empty-test error")
	}
}

func TestSlidingSplitNoLeakage(t *testing.T) {
	s := SlidingSplit{K: 5, TrainSize: 30, TestSize: 10, Buffer: 3}
	splits, err := s.Splits(120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 5 {
		t.Fatalf("got %d windows", len(splits))
	}
	for w, sp := range splits {
		if len(sp.Train) != 30 || len(sp.Test) != 10 {
			t.Fatalf("window %d sizes %d/%d", w, len(sp.Train), len(sp.Test))
		}
		// Indices strictly increasing (time order preserved).
		if !sort.IntsAreSorted(sp.Train) || !sort.IntsAreSorted(sp.Test) {
			t.Fatalf("window %d not time ordered", w)
		}
		// The no-leakage invariant: last train index + buffer < first test index.
		trainEnd := sp.Train[len(sp.Train)-1]
		testStart := sp.Test[0]
		if testStart-trainEnd <= s.Buffer {
			t.Fatalf("window %d leaks: train end %d, test start %d, buffer %d", w, trainEnd, testStart, s.Buffer)
		}
	}
	// Windows slide forward.
	for w := 1; w < len(splits); w++ {
		if splits[w].Train[0] <= splits[w-1].Train[0] {
			t.Fatalf("window %d does not slide forward", w)
		}
	}
	// The last window should end exactly at the final sample.
	last := splits[len(splits)-1]
	if last.Test[len(last.Test)-1] != 119 {
		t.Fatalf("last window ends at %d, want 119", last.Test[len(last.Test)-1])
	}
}

func TestSlidingSplitErrors(t *testing.T) {
	if _, err := (SlidingSplit{K: 0, TrainSize: 5, TestSize: 2}).Splits(20, nil); err == nil {
		t.Fatal("want K error")
	}
	if _, err := (SlidingSplit{K: 2, TrainSize: 50, TestSize: 10, Buffer: 0}).Splits(20, nil); err == nil {
		t.Fatal("want window-too-large error")
	}
}

// TestSlidingSplitStride: with a stride, window j starts at j × Stride and
// the split is the last K windows that fit, so one more stride of samples
// drops the oldest window, keeps the other K−1 index for index and adds
// one after them.
func TestSlidingSplitStride(t *testing.T) {
	s := SlidingSplit{K: 3, TrainSize: 40, TestSize: 15, Buffer: 2, Stride: 10}
	splits, err := s.Splits(93, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 93 samples fit windows of 57 at 0, 10, 20 and 30: the last three.
	for i, want := range []int{10, 20, 30} {
		if got := splits[i].Train[0]; got != want {
			t.Fatalf("window %d starts at %d, want %d", i, got, want)
		}
	}
	grown, err := s.Splits(93+s.Stride, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < s.K; i++ {
		if !reflect.DeepEqual(grown[i-1], splits[i]) {
			t.Fatalf("after one stride, window %d is %v, want the old window %d %v", i-1, grown[i-1], i, splits[i])
		}
	}
	if got := grown[s.K-1].Train[0]; got != 40 {
		t.Fatalf("the new window starts at %d, want 40", got)
	}
	if _, err := s.Splits(57+2*s.Stride-1, nil); err == nil {
		t.Fatal("two windows fit: want an error for K=3")
	}
	if _, err := (SlidingSplit{K: 1, TrainSize: 5, TestSize: 2, Stride: -1}).Splits(20, nil); err == nil {
		t.Fatal("want a negative-stride error")
	}
}

func TestSlidingSplitSingleWindow(t *testing.T) {
	splits, err := (SlidingSplit{K: 1, TrainSize: 10, TestSize: 5, Buffer: 2}).Splits(100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) != 1 || splits[0].Train[0] != 0 {
		t.Fatalf("single window should start at 0: %+v", splits[0])
	}
}

func TestSpecStrings(t *testing.T) {
	specs := map[string]Splitter{
		"kfold(k=10,shuffle=true)":                              KFold{K: 10, Shuffle: true},
		"shufflesplit(iter=5,test=0.2)":                         ShuffleSplit{Iterations: 5, TestFrac: 0.2},
		"slidingsplit(k=4,train=50,test=10,buffer=2)":           SlidingSplit{K: 4, TrainSize: 50, TestSize: 10, Buffer: 2},
		"slidingsplit(k=3,train=40,test=15,buffer=2,stride=10)": SlidingSplit{K: 3, TrainSize: 40, TestSize: 15, Buffer: 2, Stride: 10},
	}
	for want, s := range specs {
		if got := s.Spec(); got != want {
			t.Errorf("Spec() = %q, want %q", got, want)
		}
	}
}

// Property: for any valid KFold configuration, test folds partition [0, n).
func TestKFoldPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 2 + rng.Intn(6)
		n := k + rng.Intn(200)
		splits, err := (KFold{K: k, Shuffle: true}).Splits(n, rng)
		if err != nil {
			return false
		}
		count := make([]int, n)
		for _, sp := range splits {
			for _, i := range sp.Test {
				count[i]++
			}
		}
		for _, c := range count {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: sliding split never leaks regardless of configuration.
func TestSlidingSplitLeakFreeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := SlidingSplit{
			K:         1 + rng.Intn(8),
			TrainSize: 1 + rng.Intn(50),
			TestSize:  1 + rng.Intn(20),
			Buffer:    rng.Intn(10),
		}
		n := s.TrainSize + s.Buffer + s.TestSize + rng.Intn(100)
		splits, err := s.Splits(n, nil)
		if err != nil {
			return false
		}
		for _, sp := range splits {
			trainEnd := sp.Train[len(sp.Train)-1]
			if sp.Test[0]-trainEnd <= s.Buffer {
				return false
			}
			if sp.Test[len(sp.Test)-1] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
