// Package dataset defines the tabular data container that flows through
// every Transformer-Estimator Graph pipeline, together with CSV I/O,
// sampling utilities and synthetic-data generators.
package dataset

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"unsafe"

	"coda/internal/matrix"
)

// Dataset is a feature matrix X with an optional target vector Y.
//
// Time-series windowing transformers (internal/tswindow) set WindowLen and
// NumVars so that downstream temporal estimators can reinterpret each row of
// X as a WindowLen x NumVars window without copying.
type Dataset struct {
	X        *matrix.Matrix
	Y        []float64
	ColNames []string

	// TargetName names the quantity in Y, for reporting.
	TargetName string

	// WindowLen is the history-window length p when rows of X are
	// flattened time windows; 0 means plain tabular data.
	WindowLen int
	// NumVars is the number of series variables v when windowed.
	NumVars int

	// ColScale/ColOffset record the affine map back to original units for
	// each column of X after scaling transformers ran:
	// original = scaled*ColScale[j] + ColOffset[j]. Nil means identity.
	// Windowing transformers consult them when deriving targets.
	ColScale  []float64
	ColOffset []float64
	// YScale/YOffset map Y (and predictions of Y) back to original units:
	// original = y*YScale + YOffset. YScale 0 means identity. Pipelines
	// use this so model scores are comparable across scaling options.
	YScale  float64
	YOffset float64

	// memo is what fits derive from this dataset once for every fit on it
	// (Memoized); shared is what they derive once for every dataset that
	// carries it (SharedMemoized). Both are nil on every dataset but a
	// WithMemo copy.
	memo, shared *Memo

	// fp is what Fingerprint last hashed. A copy of the dataset starts
	// without it, so WithMemo and WithX build their copies field by field.
	fp atomic.Pointer[fingerprinted]
}

// Memo is a table of per-key onces: each key's value is made by the first
// call that asks for it, and every later call gets that value. A dataset
// carries its own (Memoized) and may carry one it shares with other
// datasets (SharedMemoized); the zero Memo is empty and ready.
type Memo struct {
	mu    sync.Mutex
	cells map[any]*memoCell
}

type memoCell struct {
	once sync.Once
	v    any
}

// WithMemo returns a header copy of d that carries a fresh, empty memo of
// its own and shared, a memo other datasets may carry too (nil for none).
// The copy shares d's matrix and slices, and its own memo lives as long as
// the copy does. No dataset derived from it (WithX, Subset, a
// transformer's output) carries either memo on.
func (d *Dataset) WithMemo(shared *Memo) *Dataset {
	return &Dataset{
		X: d.X, Y: d.Y, ColNames: d.ColNames, TargetName: d.TargetName,
		WindowLen: d.WindowLen, NumVars: d.NumVars,
		ColScale: d.ColScale, ColOffset: d.ColOffset, YScale: d.YScale, YOffset: d.YOffset,
		memo: new(Memo), shared: shared,
	}
}

// Memoized returns mk()'s value. On a dataset that carries a memo
// (WithMemo) it is made once per key, by the first call that asks, and
// shared by every call after it; on any other dataset every call makes
// its own. mk runs with no lock of the memo held, so it may ask ds for
// another key, but not for its own. mk must derive its value from ds and
// key alone, and the callers that share a value must only read it or
// serialize their writes, since they may run at once.
func Memoized[K comparable, T any](ds *Dataset, key K, mk func() T) T {
	return memoized(ds.memo, key, mk)
}

// SharedMemoized is Memoized on the memo ds shares with other datasets:
// the value is made once per key for all of them, by whichever asks first,
// and on a dataset that shares none every call makes its own. So mk must
// derive from key alone whatever the callers read of the value, since
// they need not be the dataset it was made on.
func SharedMemoized[K comparable, T any](ds *Dataset, key K, mk func() T) T {
	return memoized(ds.shared, key, mk)
}

// HasSharedMemo reports whether ds carries a memo it shares with other
// datasets, so that a caller can skip deriving a key nothing would share.
func (d *Dataset) HasSharedMemo() bool { return d.shared != nil }

func memoized[K comparable, T any](m *Memo, key K, mk func() T) T {
	if m == nil {
		return mk()
	}
	m.mu.Lock()
	c, ok := m.cells[key]
	if !ok {
		if m.cells == nil {
			m.cells = map[any]*memoCell{}
		}
		c = new(memoCell)
		m.cells[key] = c
	}
	m.mu.Unlock()
	c.once.Do(func() { c.v = mk() })
	return c.v.(T)
}

// New builds a Dataset, validating that len(y) matches x's rows when y is
// non-nil.
func New(x *matrix.Matrix, y []float64) (*Dataset, error) {
	if y != nil && x.Rows() != len(y) {
		return nil, fmt.Errorf("dataset: X has %d rows but Y has %d values", x.Rows(), len(y))
	}
	return &Dataset{X: x, Y: y}, nil
}

// NumSamples returns the number of rows.
func (d *Dataset) NumSamples() int { return d.X.Rows() }

// NumFeatures returns the number of feature columns.
func (d *Dataset) NumFeatures() int { return d.X.Cols() }

// WithX returns a shallow variant of d with a replacement feature matrix,
// keeping Y and its affine metadata. Column names and column affines are
// cleared — the caller (a transformer) re-establishes them if its mapping
// preserves column identity — and so is d's memo, whose values were
// derived from d's matrix.
func (d *Dataset) WithX(x *matrix.Matrix) *Dataset {
	return &Dataset{
		X: x, Y: d.Y, TargetName: d.TargetName, WindowLen: d.WindowLen, NumVars: d.NumVars,
		YScale: d.YScale, YOffset: d.YOffset,
	}
}

// ColAffine returns the affine map of column j back to original units
// (identity when none was recorded).
func (d *Dataset) ColAffine(j int) (scale, offset float64) {
	if d.ColScale == nil || j >= len(d.ColScale) {
		return 1, 0
	}
	return d.ColScale[j], d.ColOffset[j]
}

// DenormY maps target-space values (truth or predictions) back to original
// units using YScale/YOffset; identity when no scaling was recorded.
func (d *Dataset) DenormY(y []float64) []float64 {
	if d.YScale == 0 && d.YOffset == 0 {
		return y
	}
	scale := d.YScale
	if scale == 0 {
		scale = 1
	}
	out := make([]float64, len(y))
	for i, v := range y {
		out[i] = float64(v*scale) + d.YOffset
	}
	return out
}

// Subset returns a new dataset with the rows idx (copied, in order).
// Column metadata is deep-copied like Clone does: subsets serve as
// sibling cross-validation folds evaluated concurrently, and sharing
// ColNames/ColScale/ColOffset by reference would let a transformer that
// rewrites column metadata corrupt every sibling.
func (d *Dataset) Subset(idx []int) *Dataset {
	out := &Dataset{
		X:          d.X.SelectRows(idx),
		ColNames:   cloneStrings(d.ColNames),
		TargetName: d.TargetName,
		WindowLen:  d.WindowLen,
		NumVars:    d.NumVars,
		ColScale:   cloneFloats(d.ColScale),
		ColOffset:  cloneFloats(d.ColOffset),
		YScale:     d.YScale,
		YOffset:    d.YOffset,
	}
	if d.Y != nil {
		out.Y = make([]float64, len(idx))
		for k, i := range idx {
			out.Y[k] = d.Y[i]
		}
	}
	return out
}

// SliceRange returns rows [a, b) as a new dataset. Column metadata is
// deep-copied for the same sibling-isolation reason as Subset.
func (d *Dataset) SliceRange(a, b int) *Dataset {
	out := &Dataset{
		X:          d.X.SliceRows(a, b),
		ColNames:   cloneStrings(d.ColNames),
		TargetName: d.TargetName,
		WindowLen:  d.WindowLen,
		NumVars:    d.NumVars,
		ColScale:   cloneFloats(d.ColScale),
		ColOffset:  cloneFloats(d.ColOffset),
		YScale:     d.YScale,
		YOffset:    d.YOffset,
	}
	if d.Y != nil {
		out.Y = append([]float64(nil), d.Y[a:b]...)
	}
	return out
}

func cloneStrings(s []string) []string {
	if s == nil {
		return nil
	}
	return append([]string(nil), s...)
}

func cloneFloats(s []float64) []float64 {
	if s == nil {
		return nil
	}
	return append([]float64(nil), s...)
}

// Fingerprint returns a stable hex digest of the dataset contents. The DARR
// keys shared analytics results by this fingerprint so that cooperating
// clients agree on what "the same data" means.
//
// The hashed bytes are the row and column counts, then every element of X
// and Y, each as a little-endian uint64. On a little-endian host those are
// the elements' own bytes, so they are hashed where they are; elsewhere
// they are encoded a 4 KiB block at a time.
//
// A dataset searched again is fingerprinted again, so it keeps its last
// fingerprint with the shape it hashed. When a call hashes the same bytes
// as the one before, it also keeps a private copy of the elements; from
// then on a call whose shape and element bits equal the copy's returns the
// kept fingerprint without hashing, and any other call hashes and replaces
// what is kept. A dataset fingerprinted once keeps no copy. Bits, not
// values, are compared: +0 and -0, or two NaN payloads, are different
// data, as they hash differently. So the result is always the digest of
// the dataset's bytes at the call, even if X or Y changed in place since
// the last one.
func (d *Dataset) Fingerprint() string {
	rows, cols, x, y := d.X.Rows(), d.X.Cols(), d.X.Data(), d.Y
	last := d.fp.Load()
	if last != nil && last.copied && last.holds(rows, cols, x, y) {
		return last.fp
	}
	m := &fingerprinted{rows: rows, cols: cols, fp: fingerprint(rows, cols, x, y, nativeLittleEndian)}
	if last != nil && last.fp == m.fp {
		vals := append(append(make([]float64, 0, len(x)+len(y)), x...), y...)
		m.x, m.y, m.copied = vals[:len(x):len(x)], vals[len(x):], true
	}
	d.fp.Store(m)
	return m.fp
}

// fingerprinted is one Fingerprint result: the shape it hashed and, once
// copied is set, a private copy of the elements. It is not changed once
// stored, so any number of calls may read it at once.
type fingerprinted struct {
	rows, cols int
	x, y       []float64
	copied     bool
	fp         string
}

// holds reports whether a dataset of this shape and these elements has the
// fingerprint m.fp: its shape and element bits are m's copy's.
func (m *fingerprinted) holds(rows, cols int, x, y []float64) bool {
	return m.rows == rows && m.cols == cols && sameBits(m.x, x) && sameBits(m.y, y)
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	return len(a) == len(b) && bytes.Equal(bytesOf(a), bytesOf(b))
}

// bytesOf is vs's memory as bytes.
func bytesOf(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

// nativeLittleEndian reports whether a float64's bytes in memory are its
// bits as a little-endian uint64.
var nativeLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// fingerprint is the digest of a rows x cols dataset with elements x and y,
// hashing the elements in place when inPlace is set and encoding them
// otherwise: the same bytes either way on a little-endian host.
func fingerprint(rows, cols int, x, y []float64, inPlace bool) string {
	h := sha256.New()
	var head [16]byte
	binary.LittleEndian.PutUint64(head[:8], uint64(rows))
	binary.LittleEndian.PutUint64(head[8:], uint64(cols))
	h.Write(head[:])
	for _, vs := range [2][]float64{x, y} {
		if inPlace {
			h.Write(bytesOf(vs))
		} else {
			writeLittleEndian(h, vs)
		}
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0])[:16])
}

// writeLittleEndian writes each of vs to w as a little-endian uint64, a
// 4 KiB block at a time, one write per block rather than per value.
func writeLittleEndian(w io.Writer, vs []float64) {
	var buf [4 << 10]byte
	for len(vs) > 0 {
		n := min(len(vs), len(buf)/8)
		for i, v := range vs[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		w.Write(buf[:8*n])
		vs = vs[n:]
	}
}
