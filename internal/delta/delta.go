// Package delta implements the binary delta encoding of Section III: the
// home data store sends d(o1, e, k) — the difference between a node's
// version e and the latest version k — instead of the full object when the
// delta is considerably smaller, saving bandwidth.
//
// The algorithm is rsync-style: the old version is cut into fixed-size
// blocks indexed by a rolling weak hash; the new version is scanned with a
// sliding window, emitting Copy operations for block matches (verified
// byte-for-byte) and Insert operations for literal runs. A window that
// continues the copy before it is matched by comparing bytes alone, so an
// unchanged run never hashes and an unchanged object never builds the index.
package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// ErrCorrupt is wrapped by Apply/Unmarshal when a delta does not fit its
// base or its encoding is malformed.
var ErrCorrupt = errors.New("delta: corrupt delta")

// Op is one reconstruction step: a copy of Len bytes from offset Off of the
// base version (Data nil), or an insertion of literal Data.
type Op struct {
	Off  int64
	Len  int64
	Data []byte
}

// IsCopy reports whether the op copies from the base.
func (o Op) IsCopy() bool { return o.Data == nil }

// Delta encodes the difference between a base version and a target version.
type Delta struct {
	BlockSize int
	BaseLen   int64
	TargetLen int64
	Ops       []Op
}

// DefaultBlockSize is the block granularity used when callers pass 0.
const DefaultBlockSize = 64

// weak is a rolling Adler-style checksum over a fixed window.
type weak struct{ a, b, n uint32 }

func newWeak(p []byte) weak {
	w := weak{n: uint32(len(p))}
	for _, c := range p {
		w.a += uint32(c)
		w.b += w.a // byte i ends up counted len(p)-i times
	}
	return w
}

// roll slides the window one byte: drop out, take in.
func (w *weak) roll(out, in byte) {
	w.a += uint32(in) - uint32(out)
	w.b += w.a - w.n*uint32(out)
}

func (w weak) sum() uint32 { return w.a | w.b<<16 }

// blockIndex finds the base blocks carrying a weak hash: an open-addressed
// table of (hash, lowest block) at most a quarter full (a miss, the common
// probe while an edit slides by, then ends on its first slot three times in
// four), and per block the next block with the same hash, ascending, so a
// lookup meets its candidates lowest offset first. Blocks are stored
// 1-based; 0 is "none".
type blockIndex struct {
	slots []slot
	next  []int32
	shift uint // 32 - log2(len(slots))
}

type slot struct {
	hash uint32
	head int32
}

// indexPool recycles index storage: Compute runs outside every store lock,
// concurrently, and the store calls it once per pulled edit.
var indexPool = sync.Pool{New: func() any { return new(blockIndex) }}

func buildIndex(base []byte, bs int) *blockIndex {
	// Blocks past 2^30 stay unindexed (the table tops out at 2^32 slots):
	// what only they could match travels as literals.
	n := min(len(base)/bs, 1<<30)
	logSize := bits.Len(uint(4*n - 1))
	ix := indexPool.Get().(*blockIndex)
	if size := 1 << logSize; cap(ix.slots) < size {
		ix.slots = make([]slot, size)
	} else {
		ix.slots = ix.slots[:size]
		clear(ix.slots)
	}
	if cap(ix.next) < n {
		ix.next = make([]int32, n)
	}
	ix.next, ix.shift = ix.next[:n], uint(32-logSize)
	// Descending, each block pushed on the front of its chain.
	for blk := n - 1; blk >= 0; blk-- {
		h := newWeak(base[blk*bs : (blk+1)*bs]).sum()
		s := ix.find(h)
		s.hash, ix.next[blk], s.head = h, s.head, int32(blk+1)
	}
	return ix
}

// find returns the slot holding h, or the empty slot where h belongs.
func (ix *blockIndex) find(h uint32) *slot {
	mask := uint32(len(ix.slots) - 1)
	for i := (h * 2654435761) >> ix.shift; ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.head == 0 || s.hash == h {
			return s
		}
	}
}

// matcher scans one target against base; idx stays nil until a window
// cannot be matched by extending the copy before it.
type matcher struct {
	base []byte
	bs   int
	idx  *blockIndex
}

// lookup returns the lowest base offset whose block equals win, or -1.
func (m *matcher) lookup(h uint32, win []byte) int {
	if m.idx == nil {
		m.idx = buildIndex(m.base, m.bs)
	}
	for b := m.idx.find(h).head; b != 0; b = m.idx.next[b-1] {
		off := int(b-1) * m.bs
		if bytes.Equal(m.base[off:off+m.bs], win) {
			return off
		}
	}
	return -1
}

func (m *matcher) match(target []byte) []Op {
	var ops []Op
	bs := m.bs
	// ext is the base offset that continues the last copy (0 before any op:
	// the lowest offset a first block can match); -1 while a literal pends.
	// A match there is the one a lookup would choose — copies start and end
	// on block boundaries, so base[ext:ext+bs] is an indexed block, and the
	// continuing candidate wins over every other — found without hashing.
	ext, lit := 0, -1 // lit: where in target the pending literal starts
	var w weak
	hashed := false // w covers target[i:i+bs]
	i := 0
	for i+bs <= len(target) {
		win := target[i : i+bs]
		off := ext
		if ext < 0 || ext+bs > len(m.base) || !bytes.Equal(m.base[ext:ext+bs], win) {
			if !hashed {
				w, hashed = newWeak(win), true
			}
			off = m.lookup(w.sum(), win)
		}
		if off < 0 {
			if lit < 0 {
				lit = i
			}
			ext = -1
			if i+bs < len(target) {
				w.roll(target[i], target[i+bs])
			}
			i++
			continue
		}
		if lit >= 0 {
			ops = append(ops, Op{Data: append([]byte(nil), target[lit:i]...)})
			lit = -1
		}
		if n := len(ops); n > 0 && ops[n-1].IsCopy() && ops[n-1].Off+ops[n-1].Len == int64(off) {
			ops[n-1].Len += int64(bs)
		} else {
			ops = append(ops, Op{Off: int64(off), Len: int64(bs)})
		}
		ext, hashed = off+bs, false
		i += bs
	}
	if lit < 0 {
		lit = i
	}
	if lit < len(target) {
		ops = append(ops, Op{Data: append([]byte(nil), target[lit:]...)})
	}
	return ops
}

// Compute builds a delta transforming base into target using the given
// block size (0 selects DefaultBlockSize).
func Compute(base, target []byte, blockSize int) *Delta {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	d := &Delta{BlockSize: blockSize, BaseLen: int64(len(base)), TargetLen: int64(len(target))}
	if len(target) == 0 {
		return d
	}
	if len(base) < blockSize {
		d.Ops = append(d.Ops, Op{Data: append([]byte(nil), target...)})
		return d
	}
	m := matcher{base: base, bs: blockSize}
	d.Ops = m.match(target)
	if m.idx != nil {
		indexPool.Put(m.idx)
	}
	return d
}

// Apply reconstructs the target from the base and the delta. The ops are
// checked against the base and the declared target length before any output
// is allocated, so a hostile header cannot size the buffer.
func Apply(base []byte, d *Delta) ([]byte, error) {
	if int64(len(base)) != d.BaseLen {
		return nil, fmt.Errorf("%w: base length %d, delta expects %d", ErrCorrupt, len(base), d.BaseLen)
	}
	var total int64
	for i, op := range d.Ops {
		n := int64(len(op.Data))
		if op.IsCopy() {
			if n = op.Len; op.Off < 0 || n < 0 || op.Off > int64(len(base)) || n > int64(len(base))-op.Off {
				return nil, fmt.Errorf("%w: op %d copies %d bytes at %d beyond base %d", ErrCorrupt, i, n, op.Off, len(base))
			}
		}
		if n > d.TargetLen-total {
			return nil, fmt.Errorf("%w: ops reconstruct more than the declared %d bytes", ErrCorrupt, d.TargetLen)
		}
		total += n
	}
	if total != d.TargetLen {
		return nil, fmt.Errorf("%w: reconstructed %d bytes, want %d", ErrCorrupt, total, d.TargetLen)
	}
	out := make([]byte, 0, total)
	for _, op := range d.Ops {
		if op.IsCopy() {
			out = append(out, base[op.Off:op.Off+op.Len]...)
		} else {
			out = append(out, op.Data...)
		}
	}
	return out, nil
}

// Marshal encodes the delta in a compact varint wire format.
func (d *Delta) Marshal() []byte {
	buf := make([]byte, 0, d.WireSize())
	buf = binary.AppendUvarint(buf, uint64(d.BlockSize))
	buf = binary.AppendUvarint(buf, uint64(d.BaseLen))
	buf = binary.AppendUvarint(buf, uint64(d.TargetLen))
	buf = binary.AppendUvarint(buf, uint64(len(d.Ops)))
	for _, op := range d.Ops {
		if op.IsCopy() {
			buf = append(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(op.Off))
			buf = binary.AppendUvarint(buf, uint64(op.Len))
		} else {
			buf = append(buf, 1)
			buf = binary.AppendUvarint(buf, uint64(len(op.Data)))
			buf = append(buf, op.Data...)
		}
	}
	return buf
}

// WireSize returns the encoded size in bytes — the quantity the home data
// store compares against the full object to decide delta-vs-full — without
// encoding anything.
func (d *Delta) WireSize() int {
	n := uvarintLen(uint64(d.BlockSize)) + uvarintLen(uint64(d.BaseLen)) +
		uvarintLen(uint64(d.TargetLen)) + uvarintLen(uint64(len(d.Ops)))
	for _, op := range d.Ops {
		if op.IsCopy() {
			n += 1 + uvarintLen(uint64(op.Off)) + uvarintLen(uint64(op.Len))
		} else {
			n += 1 + uvarintLen(uint64(len(op.Data))) + len(op.Data)
		}
	}
	return n
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Unmarshal decodes a delta from its wire format. Every field is a length,
// an offset or a count, so a varint that does not fit a non-negative int, an
// op count the remaining bytes cannot carry (an op takes at least two) and a
// literal longer than what is left are all ErrCorrupt.
func Unmarshal(buf []byte) (*Delta, error) {
	var n int
	var err error // the first bad varint; read returns 0 from then on
	read := func() int {
		v, sz := binary.Uvarint(buf[n:])
		if err != nil || sz <= 0 || v > math.MaxInt {
			if err == nil {
				err = fmt.Errorf("%w: truncated or oversized varint at %d", ErrCorrupt, n)
			}
			return 0
		}
		n += sz
		return int(v)
	}
	d := &Delta{BlockSize: read(), BaseLen: int64(read()), TargetLen: int64(read())}
	nops := read()
	if err == nil && nops > (len(buf)-n)/2 {
		err = fmt.Errorf("%w: %d ops declared, %d bytes left", ErrCorrupt, nops, len(buf)-n)
	}
	for i := 0; i < nops && err == nil; i++ {
		if n >= len(buf) {
			return nil, fmt.Errorf("%w: truncated op list", ErrCorrupt)
		}
		kind := buf[n]
		n++
		switch kind {
		case 0:
			d.Ops = append(d.Ops, Op{Off: int64(read()), Len: int64(read())})
		case 1:
			length := read()
			if length > len(buf)-n {
				return nil, fmt.Errorf("%w: truncated literal", ErrCorrupt)
			}
			d.Ops = append(d.Ops, Op{Data: append([]byte(nil), buf[n:n+length]...)})
			n += length
		default:
			return nil, fmt.Errorf("%w: unknown op kind %d", ErrCorrupt, kind)
		}
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}
