package dataset

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"coda/internal/matrix"
)

func makeDS(t *testing.T) *Dataset {
	t.Helper()
	x, err := matrix.NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}, {7, 8}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := New(x, []float64{10, 20, 30, 40})
	if err != nil {
		t.Fatal(err)
	}
	ds.ColNames = []string{"a", "b"}
	ds.TargetName = "y"
	return ds
}

func TestNewValidatesLengths(t *testing.T) {
	x := matrix.New(3, 2)
	if _, err := New(x, []float64{1, 2}); err == nil {
		t.Fatal("want length mismatch error")
	}
	if _, err := New(x, nil); err != nil {
		t.Fatalf("nil Y should be fine: %v", err)
	}
}

func TestSubsetAndSlice(t *testing.T) {
	ds := makeDS(t)
	sub := ds.Subset([]int{3, 1})
	if sub.NumSamples() != 2 || sub.X.At(0, 0) != 7 || sub.Y[1] != 20 {
		t.Fatalf("Subset wrong: %+v", sub)
	}
	sl := ds.SliceRange(1, 3)
	if sl.NumSamples() != 2 || sl.X.At(0, 0) != 3 || sl.Y[1] != 30 {
		t.Fatalf("SliceRange wrong: %+v", sl)
	}
	// Mutating the subset must not touch the original.
	sub.X.Set(0, 0, 999)
	sub.Y[0] = 999
	if ds.X.At(3, 0) == 999 || ds.Y[3] == 999 {
		t.Fatal("Subset aliases original data")
	}
}

// TestSubsetMetadataIsolation locks in the copy-on-write fix for column
// metadata: Subset and SliceRange used to share ColNames/ColScale/ColOffset
// by reference, so a transformer rewriting one fold's metadata corrupted
// every sibling fold evaluated from the same parent.
func TestSubsetMetadataIsolation(t *testing.T) {
	ds := makeDS(t)
	ds.ColScale = []float64{2, 3}
	ds.ColOffset = []float64{1, -1}

	sub := ds.Subset([]int{0, 2})
	sub.ColNames[0] = "mutated"
	sub.ColScale[1] = 99
	sub.ColOffset[0] = 99
	if ds.ColNames[0] != "a" || ds.ColScale[1] != 3 || ds.ColOffset[0] != 1 {
		t.Fatalf("Subset aliases column metadata: %+v", ds)
	}

	sl := ds.SliceRange(0, 2)
	sl.ColNames[1] = "mutated"
	sl.ColScale[0] = 99
	sl.ColOffset[1] = 99
	if ds.ColNames[1] != "b" || ds.ColScale[0] != 2 || ds.ColOffset[1] != -1 {
		t.Fatalf("SliceRange aliases column metadata: %+v", ds)
	}

	// Nil metadata stays nil rather than becoming empty slices.
	bare := makeDS(t)
	bare.ColNames = nil
	if s := bare.Subset([]int{0}); s.ColNames != nil || s.ColScale != nil || s.ColOffset != nil {
		t.Fatalf("nil metadata not preserved: %+v", s)
	}
}

func TestFingerprintStability(t *testing.T) {
	ds := makeDS(t)
	fp1 := ds.Fingerprint()
	fp2 := makeDS(t).Fingerprint()
	if fp1 != fp2 {
		t.Fatal("identical data must have identical fingerprints")
	}
	other := makeDS(t)
	other.Y[0] = 11
	if other.Fingerprint() == fp1 {
		t.Fatal("different Y must change fingerprint")
	}
	other2 := makeDS(t)
	other2.X.Set(0, 0, 1.5)
	if other2.Fingerprint() == fp1 {
		t.Fatal("different X must change fingerprint")
	}
}

// TestFingerprintPinned: the DARR keys every shared result by Fingerprint,
// so its bytes are part of the wire contract — a durable DARR filled by an
// earlier build must still hit. The digests are of the 4x2 fixture, of the
// 400x6 regression set search-coop-grid searches, whose 2 802 floats span
// several 4 KiB encoding blocks, and of fingerprintCases' bit patterns: -0,
// both infinities and NaNs with payloads of their own, a dataset with no Y
// and one with no rows. The last three were computed outside Go, with
// Python's struct and hashlib.
func TestFingerprintPinned(t *testing.T) {
	want := map[string]string{
		"4x2":      "8f38e830dda0ea58e873f8bdd0512f7e",
		"400x6":    "417b50d9da0ee65db74549b7e76ccd16",
		"specials": "cef71b1445236ac1ee2f038532b8d92e",
		"noY":      "418ea24ceffa319d872960391880aaa3",
		"zeroRows": "f7548c023e431138b11357593f5cceb9",
	}
	for name, ds := range fingerprintCases(t) {
		if got := ds.Fingerprint(); got != want[name] {
			t.Errorf("%s: Fingerprint() = %s, want %s", name, got, want[name])
		}
	}
}

// TestFingerprintHashesEncodedBytes: on a little-endian host, hashing X's
// and Y's backing arrays in place reads exactly the bytes the encode loop
// writes, for every pinned case and for random bit patterns of every
// length around the loop's 512-value block.
func TestFingerprintHashesEncodedBytes(t *testing.T) {
	if !nativeLittleEndian {
		t.Skip("the elements are hashed in place on little-endian hosts only")
	}
	cases := fingerprintCases(t)
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 511, 512, 513, 1025} {
		x := matrix.New(n, 1)
		for i := range x.Data() {
			x.Data()[i] = math.Float64frombits(rng.Uint64())
		}
		cases[fmt.Sprintf("random%d", n)] = &Dataset{X: x, Y: x.Data()[:n/2]}
	}
	for name, ds := range cases {
		if inPlace, encoded := fingerprint(ds.X.Rows(), ds.X.Cols(), ds.X.Data(), ds.Y, true), fingerprint(ds.X.Rows(), ds.X.Cols(), ds.X.Data(), ds.Y, false); inPlace != encoded {
			t.Errorf("%s: in place %s, encoded %s", name, inPlace, encoded)
		}
	}
}

// TestFingerprintFollowsInPlaceChanges: once a dataset has hashed the
// same bytes twice it keeps a copy of them and returns the kept digest
// while its shape and element bits are the copy's, so after each change
// made in place here it must equal the fingerprint of a fresh copy, which
// has nothing kept, and differ from the one before. Bits count, not
// values: +0 against -0 and one NaN payload against another are changes.
func TestFingerprintFollowsInPlaceChanges(t *testing.T) {
	grid := fingerprintCases(t)["400x6"]
	ds := &Dataset{X: grid.X.Clone(), Y: slices.Clone(grid.Y)}
	ds.X.Data()[0] = 0
	fresh := func() string { return (&Dataset{X: ds.X.Clone(), Y: slices.Clone(ds.Y)}).Fingerprint() }
	last := ds.Fingerprint()
	if want := fresh(); last != want {
		t.Fatalf("first call %s, a fresh copy %s", last, want)
	}
	for _, step := range []struct {
		name   string
		change func()
	}{
		{"nothing", func() {}},
		{"one X element", func() { ds.X.Data()[1234]++ }},
		{"+0 to -0", func() { ds.X.Data()[0] = math.Copysign(0, -1) }},
		{"a NaN", func() { ds.X.Data()[1] = math.Float64frombits(0x7ff8000000000001) }},
		{"NaN payload", func() { ds.X.Data()[1] = math.Float64frombits(0x7ff8000000000002) }},
		{"Y", func() { ds.Y[399] = -ds.Y[399] }},
		{"X of another shape, same elements", func() {
			x := matrix.New(ds.X.Cols(), ds.X.Rows())
			copy(x.Data(), ds.X.Data())
			ds.X = x
		}},
		{"Y dropped", func() { ds.Y = nil }},
	} {
		if ds.Fingerprint() != last {
			t.Fatalf("before %s: the fingerprint moved with nothing changed", step.name)
		}
		if m := ds.fp.Load(); !m.copied {
			t.Fatalf("before %s: the same bytes hashed twice, but no copy kept", step.name)
		}
		step.change()
		got := ds.Fingerprint()
		if want := fresh(); got != want {
			t.Errorf("%s: Fingerprint() = %s, a fresh copy's %s", step.name, got, want)
		}
		if changed := got != last; changed != (step.name != "nothing") {
			t.Errorf("%s: fingerprint %s after %s", step.name, got, last)
		}
		last = got
	}
}

// TestFingerprintCopiesOnlyWhenRepeated: a dataset fingerprinted once, as
// every search of a freshly read dataset is, keeps no copy of its
// elements; one fingerprinted twice over the same bytes keeps one, and one
// whose bytes changed between the calls drops it.
func TestFingerprintCopiesOnlyWhenRepeated(t *testing.T) {
	ds := makeDS(t)
	ds.Fingerprint()
	if m := ds.fp.Load(); m.copied || m.x != nil || m.y != nil {
		t.Fatalf("after one call: copied %v, %d+%d elements kept", m.copied, len(m.x), len(m.y))
	}
	ds.Fingerprint()
	if m := ds.fp.Load(); !m.copied || len(m.x) != len(ds.X.Data()) || len(m.y) != len(ds.Y) {
		t.Fatalf("after a repeat: copied %v, %d+%d elements kept", m.copied, len(m.x), len(m.y))
	}
	ds.Y[0]++
	ds.Fingerprint()
	if m := ds.fp.Load(); m.copied || m.x != nil {
		t.Fatalf("after a change: copied %v, %d elements kept", m.copied, len(m.x))
	}
}

// TestFingerprintConcurrentCalls: calls on one dataset from several
// goroutines, beside copies made of it and changes to a second dataset
// sharing none of its memory, all return the right fingerprint. Run it
// under -race: the kept digest is stored while others read it and copy
// the dataset.
func TestFingerprintConcurrentCalls(t *testing.T) {
	a := makeDS(t)
	b := fingerprintCases(t)["400x6"]
	wantA, wantB := a.Fingerprint(), b.Fingerprint()
	a = makeDS(t) // nothing kept yet, so the goroutines race to store it
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if got := a.Fingerprint(); got != wantA {
					t.Errorf("Fingerprint() = %s, want %s", got, wantA)
					return
				}
				if got := a.WithMemo(nil).Fingerprint(); got != wantA {
					t.Errorf("WithMemo copy: Fingerprint() = %s, want %s", got, wantA)
					return
				}
				if got := a.WithX(b.X).WithMemo(nil).NumFeatures(); got != b.X.Cols() {
					t.Errorf("WithX copy has %d features, want %d", got, b.X.Cols())
					return
				}
				if got := b.Fingerprint(); got != wantB {
					t.Errorf("second dataset: Fingerprint() = %s, want %s", got, wantB)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCopiesCarryEveryField: WithMemo and WithX build their copies field
// by field, leaving out the kept fingerprint, so a field added to Dataset
// must be added to them too. Every exported field is set here by
// reflection; WithMemo must carry each, and WithX each but X and the
// column metadata it clears.
func TestCopiesCarryEveryField(t *testing.T) {
	var d Dataset
	v := reflect.ValueOf(&d).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if !v.Type().Field(i).IsExported() {
			continue
		}
		switch f.Kind() {
		case reflect.Pointer:
			f.Set(reflect.New(f.Type().Elem()))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 1, 1))
		case reflect.String:
			f.SetString("set")
		case reflect.Int:
			f.SetInt(3)
		case reflect.Float64:
			f.SetFloat(2)
		default:
			t.Fatalf("field %s: kind %s not set by this test", v.Type().Field(i).Name, f.Kind())
		}
	}
	cleared := map[string]bool{"X": true, "ColNames": true, "ColScale": true, "ColOffset": true}
	for name, c := range map[string]*Dataset{"WithMemo": d.WithMemo(nil), "WithX": d.WithX(nil)} {
		cv := reflect.ValueOf(c).Elem()
		for i := 0; i < v.NumField(); i++ {
			field := v.Type().Field(i)
			if !field.IsExported() || name == "WithX" && cleared[field.Name] {
				continue
			}
			if !reflect.DeepEqual(cv.Field(i).Interface(), v.Field(i).Interface()) {
				t.Errorf("%s does not carry %s", name, field.Name)
			}
		}
	}
}

// fingerprintCases are the datasets whose fingerprints are pinned.
func fingerprintCases(t *testing.T) map[string]*Dataset {
	grid, _, err := MakeRegression(RegressionSpec{Samples: 400, Features: 6, Informative: 3, Noise: 3}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	specials := matrix.New(2, 3)
	copy(specials.Data(), []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8dead0000beef), 1.5})
	noY := matrix.New(3, 2)
	copy(noY.Data(), []float64{1, 2, 3, 4, 5, 6})
	return map[string]*Dataset{
		"4x2":      makeDS(t),
		"400x6":    grid,
		"specials": {X: specials, Y: []float64{math.Copysign(0, -1), math.Float64frombits(0xfff0000000000001)}},
		"noY":      {X: noY},
		"zeroRows": {X: matrix.New(0, 4), Y: []float64{}},
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := makeDS(t)
	var buf bytes.Buffer
	if err := ds.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, "y")
	if err != nil {
		t.Fatal(err)
	}
	if back.X.Rows() != ds.X.Rows() || back.X.Cols() != ds.X.Cols() || !slices.Equal(back.X.Data(), ds.X.Data()) {
		t.Fatalf("X round trip: %v vs %v", back.X, ds.X)
	}
	for i := range ds.Y {
		if back.Y[i] != ds.Y[i] {
			t.Fatalf("Y round trip at %d", i)
		}
	}
	if back.ColNames[0] != "a" || back.ColNames[1] != "b" {
		t.Fatalf("ColNames round trip: %v", back.ColNames)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("a,b\n1,2\n"), "missing"); err == nil {
		t.Fatal("want missing-target error")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n1,notanumber\n"), ""); err == nil {
		t.Fatal("want parse error")
	}
	// Unsupervised read.
	ds, err := ReadCSV(strings.NewReader("a,b\n1,2\n3,4\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Y != nil || ds.NumSamples() != 2 {
		t.Fatalf("unsupervised read wrong: %+v", ds)
	}
}

func TestMakeRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds, coef, err := MakeRegression(RegressionSpec{Samples: 100, Features: 5, Informative: 3, Noise: 0}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSamples() != 100 || ds.NumFeatures() != 5 {
		t.Fatalf("shape %dx%d", ds.NumSamples(), ds.NumFeatures())
	}
	if coef[3] != 0 || coef[4] != 0 {
		t.Fatalf("uninformative coefs should be zero: %v", coef)
	}
	// With zero noise, Y must equal X*coef exactly.
	for i := 0; i < ds.NumSamples(); i++ {
		s := 0.0
		for j, c := range coef {
			s += ds.X.At(i, j) * c
		}
		if diff := s - ds.Y[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("Y[%d] inconsistent with coef", i)
		}
	}
	if _, _, err := MakeRegression(RegressionSpec{}, rng); err == nil {
		t.Fatal("want spec error")
	}
}

func TestMakeClassification(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds, err := MakeClassification(ClassificationSpec{Samples: 90, Features: 4, Classes: 3, ClusterSep: 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[float64]int{}
	for _, v := range ds.Y {
		counts[v]++
	}
	if len(counts) != 3 {
		t.Fatalf("want 3 classes, got %v", counts)
	}
	for c, n := range counts {
		if n != 30 {
			t.Fatalf("class %v has %d samples, want 30 (balanced)", c, n)
		}
	}
	// Imbalanced classes.
	ds, err = MakeClassification(ClassificationSpec{
		Samples: 1000, Features: 3, Classes: 2, ClassFrac: []float64{0.9, 0.1},
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	minority := 0
	for _, v := range ds.Y {
		if v == 1 {
			minority++
		}
	}
	if minority < 50 || minority > 200 {
		t.Fatalf("minority class count %d far from 10%%", minority)
	}
	if _, err := MakeClassification(ClassificationSpec{Samples: 10, Features: 2, Classes: 2, ClassFrac: []float64{1}}, rng); err == nil {
		t.Fatal("want ClassFrac length error")
	}
}

// Property: Subset(perm) preserves the multiset of (row, y) pairs, checked
// via the fingerprint of a re-sorted dataset being permutation sensitive but
// subset of identity being identical.
func TestSubsetIdentityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(20)
		x := matrix.New(n, 3)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < 3; j++ {
				x.Set(i, j, rng.NormFloat64())
			}
			y[i] = rng.NormFloat64()
		}
		ds, err := New(x, y)
		if err != nil {
			return false
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return ds.Subset(idx).Fingerprint() == ds.Fingerprint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoized: on a WithMemo copy each key's value is made once, by one of
// many concurrent callers, and a maker may ask the same memo for another
// key; a shared memo makes a key's value once for every copy that carries
// it, and a copy's own memo is its own; on a dataset without a memo — the
// original, or anything derived from the copy — every call makes its own.
func TestMemoized(t *testing.T) {
	ds := makeDS(t)
	var made atomic.Int64
	mk := func() int { return int(made.Add(1)) }
	m := ds.WithMemo(nil)
	if m.X != ds.X || &m.Y[0] != &ds.Y[0] {
		t.Fatal("WithMemo copied the data, want a header sharing it")
	}
	var wg sync.WaitGroup
	got := make([]int, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Memoized(m, "a", mk)
		}()
	}
	wg.Wait()
	if made.Load() != 1 || slices.Max(got) != 1 || slices.Min(got) != 1 {
		t.Fatalf("8 concurrent calls made %d values and got %v, want one value for all", made.Load(), got)
	}
	// A maker that asks for another key of the same memo: the memo's lock
	// is not held while a value is made.
	outer := Memoized(m, "b", func() int { return 10 * Memoized(m, "c", mk) })
	if outer != 20 || Memoized(m, "c", mk) != 2 || made.Load() != 2 {
		t.Fatalf("nested make: outer %d after %d makes, want 20 after 2", outer, made.Load())
	}
	shared := new(Memo)
	s1, s2 := ds.WithMemo(shared), ds.WithMemo(shared)
	before := made.Load()
	if a, b := SharedMemoized(s1, "a", mk), SharedMemoized(s2, "a", mk); a != b || made.Load()-before != 1 {
		t.Errorf("two copies sharing a memo got %d and %d after %d makes, want one value", a, b, made.Load()-before)
	}
	if a, b := Memoized(s1, "a", mk), Memoized(s2, "a", mk); a == b || made.Load()-before != 3 {
		t.Errorf("two copies' own memos got %d and %d, want a value each", a, b)
	}
	for name, plain := range map[string]*Dataset{
		"original": ds, "WithX": s1.WithX(s1.X), "Subset": s1.Subset([]int{0, 1}), "SliceRange": s1.SliceRange(0, 2),
	} {
		before := made.Load()
		Memoized(plain, "a", mk)
		Memoized(plain, "a", mk)
		SharedMemoized(plain, "a", mk)
		SharedMemoized(plain, "a", mk)
		if n := made.Load() - before; n != 4 {
			t.Errorf("%s: four calls made %d values, want 4: it carries a memo", name, n)
		}
	}
	if m.HasSharedMemo() || !s1.HasSharedMemo() || s1.WithX(s1.X).HasSharedMemo() {
		t.Error("HasSharedMemo is not true on exactly the copies made with a shared memo")
	}
}
