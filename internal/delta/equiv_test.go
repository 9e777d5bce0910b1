package delta

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// genBlockSizes are the block sizes the generated pairs run at; 0 selects
// the default, 4096 mostly exceeds the base (the all-literal path).
var genBlockSizes = []int{0, 1, 4, 8, 16, 64, 4096}

// genBytes fills n bytes from one of the distributions that stress the
// matcher differently: random (hashes spread), two-symbol and four-symbol
// (weak hashes collide between different blocks), periodic (every block
// repeats, chains are long, many offsets match).
func genBytes(rng *rand.Rand, n int) []byte {
	p := make([]byte, n)
	switch rng.Intn(4) {
	case 0:
		rng.Read(p)
	case 1:
		for i := range p {
			p[i] = "ab"[rng.Intn(2)]
		}
	case 2:
		for i := range p {
			p[i] = "acgt"[rng.Intn(4)]
		}
	default:
		period := make([]byte, 1+rng.Intn(40))
		rng.Read(period)
		for i := range p {
			p[i] = period[i%len(period)]
		}
	}
	return p
}

// genPair derives a target from a generated base by in-place edits,
// insertions, deletions and self-copies (a stretch of the base repeated
// elsewhere), and draws a block size. Sizes skew small so 20 000 pairs
// fit a tier-1 budget; the large ones cover the default and 4096 blocks.
func genPair(rng *rand.Rand) (base, target []byte, bs int) {
	bs = genBlockSizes[rng.Intn(len(genBlockSizes))]
	var n int
	switch r := rng.Intn(100); {
	case r < 70:
		n = rng.Intn(300)
	case r < 95:
		n = 300 + rng.Intn(1200)
	default:
		n = 4000 + rng.Intn(5000)
		if bs > 0 && bs < 64 {
			bs = 64
		}
	}
	base = genBytes(rng, n)
	switch rng.Intn(12) {
	case 0:
		return base, nil, bs
	case 1:
		return base, genBytes(rng, rng.Intn(2*n+1)), bs
	case 2: // append-only, usually leaving a tail shorter than a block
		return base, append(append([]byte(nil), base...), genBytes(rng, rng.Intn(100))...), bs
	}
	target = append([]byte(nil), base...)
	for k := rng.Intn(6); k > 0 && len(target) > 0; k-- {
		pos := rng.Intn(len(target))
		span := rng.Intn(len(target) - pos + 1)
		if rng.Intn(3) > 0 {
			span = min(span, 1+rng.Intn(80))
		}
		switch rng.Intn(4) {
		case 0: // edit in place
			copy(target[pos:pos+span], genBytes(rng, span))
		case 1: // insert
			target = append(target[:pos:pos], append(genBytes(rng, span), target[pos:]...)...)
		case 2: // delete
			target = append(target[:pos:pos], target[pos+span:]...)
		default: // self-copy: base[pos':pos'+span] again at pos
			from := rng.Intn(len(base) - min(span, len(base)) + 1)
			chunk := base[from : from+min(span, len(base))]
			target = append(target[:pos:pos], append(append([]byte(nil), chunk...), target[pos:]...)...)
		}
	}
	return base, target, bs
}

// edited returns a copy of base with runs random runs rewritten, frac of
// its bytes in total: the edit model of the end-to-end benchmark.
func edited(rng *rand.Rand, base []byte, runs int, frac float64) []byte {
	d := append([]byte(nil), base...)
	n := max(1, int(frac*float64(len(d))/float64(runs)))
	for r := 0; r < runs; r++ {
		off := rng.Intn(len(d) - n + 1)
		rng.Read(d[off : off+n])
	}
	return d
}

// editShapes are the end-to-end benchmark's two edits of a 32 KiB object:
// four runs rewriting 1% of it (a delta reply), and one run rewriting 60%
// (a delta the store computes and then discards for a full copy).
var editShapes = []struct {
	name string
	runs int
	frac float64
}{{"edit1pct", 4, 0.01}, {"rewrite60pct", 1, 0.60}}

// objectPairs returns n 32 KiB bases drawn by genBytes, each with its edit
// in every shape: the long literal runs the small generated pairs never
// reach.
func objectPairs(seed int64, n int) (bases, targets [][]byte) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		base := genBytes(rng, 32<<10)
		for _, s := range editShapes {
			bases, targets = append(bases, base), append(targets, edited(rng, base, s.runs, s.frac))
		}
	}
	return bases, targets
}

// TestComputeMatchesReference pins the matcher to the implementation it
// replaced: same ops, same wire bytes, on every generated pair and on 32 KiB
// objects in both of the end-to-end benchmark's edit shapes.
func TestComputeMatchesReference(t *testing.T) {
	const cases = 20000
	rng := rand.New(rand.NewSource(21))
	start := time.Now()
	for c := 0; c < cases; c++ {
		base, target, bs := genPair(rng)
		got, want := Compute(base, target, bs).Marshal(), computeRef(base, target, bs).Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d (base %d, target %d, block %d): delta is %d bytes, reference %d, or differs in content",
				c, len(base), len(target), bs, len(got), len(want))
		}
	}
	bases, targets := objectPairs(22, 12)
	for i := range bases {
		if !bytes.Equal(Compute(bases[i], targets[i], 0).Marshal(), computeRef(bases[i], targets[i], 0).Marshal()) {
			t.Fatalf("32 KiB pair %d (%s): delta differs from the reference", i, editShapes[i%len(editShapes)].name)
		}
	}
	// Budget: under 2 s without -race; logged, not asserted, on a shared box.
	t.Logf("%d generated cases and %d 32 KiB pairs in %v", cases, len(bases), time.Since(start))
}

// TestWeakMatchesReference: the word-at-a-time hash equals the byte-at-a-
// time one at every length up to 256 and every alignment of the slice, on
// bytes whose lane sums are typical, smallest and largest.
func TestWeakMatchesReference(t *testing.T) {
	random := make([]byte, 256+8)
	rand.New(rand.NewSource(7)).Read(random)
	for name, buf := range map[string][]byte{
		"random": random,
		"0x00":   make([]byte, 256+8),
		"0xff":   bytes.Repeat([]byte{0xff}, 256+8),
	} {
		for off := 0; off < 8; off++ {
			for n := 0; n <= 256; n++ {
				if got, want := newWeak(buf[off:off+n]), refWeakOf(buf[off:off+n]); got != want {
					t.Fatalf("%s bytes, offset %d, length %d: newWeak %+v, reference %+v", name, off, n, got, want)
				}
			}
		}
	}
}

// TestComputeConcurrentMatchesReference runs differently sized pairs through
// the index pool from eight goroutines at once (meaningful under -race).
func TestComputeConcurrentMatchesReference(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			for c := 0; c < 150; c++ {
				base := make([]byte, (1+g)*(200+rng.Intn(600)))
				rng.Read(base)
				target := edited(rng, base, 1+rng.Intn(4), 0.01+0.2*rng.Float64())
				if !bytes.Equal(Compute(base, target, 16).Marshal(), computeRef(base, target, 16).Marshal()) {
					t.Errorf("goroutine %d case %d: delta differs from the reference", g, c)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestComputeAllocationCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := make([]byte, 32<<10)
	rng.Read(base)
	target := edited(rng, base, 4, 0.01)
	Compute(base, target, 0) // warm the index pool
	if got := testing.AllocsPerRun(50, func() { Compute(base, target, 0) }); got > 16 {
		t.Fatalf("Compute on a 32 KiB object with 1%% edited: %.0f allocations, ceiling 16", got)
	}
}

// TestNoIndexForUnchangedRuns: a target that is the base, or the base plus
// less than a block, is matched by extension alone.
func TestNoIndexForUnchangedRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	base := make([]byte, 4096+17)
	rng.Read(base)
	for name, target := range map[string][]byte{
		"identical":   base,
		"append-only": append(append([]byte(nil), base...), "fresh readings"...),
	} {
		m := matcher{base: base, bs: 64}
		ops := m.match(target)
		if m.idx != nil {
			t.Errorf("%s: the block index was built", name)
		}
		d := &Delta{BlockSize: 64, BaseLen: int64(len(base)), TargetLen: int64(len(target)), Ops: ops}
		if !bytes.Equal(d.Marshal(), computeRef(base, target, 64).Marshal()) {
			t.Errorf("%s: delta differs from the reference", name)
		}
	}
	// An edit does need it.
	m := matcher{base: base, bs: 64}
	m.match(edited(rng, base, 1, 0.01))
	if m.idx == nil {
		t.Error("edited target: the block index was never built")
	}
}
