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
// unchanged run never hashes and an unchanged object never builds the index;
// a literal run rolls its hash behind a bit filter of the index and probes
// the index only where the filter admits a block.
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

// newWeak works on a little-endian word's bytes c0..c7 in 16-bit lanes: its
// even bytes c2k (evenBytes) and its pair sums c2k + c2k+1 (pairs).
// Multiplying lanes by a constant of four 16-bit weights collects in the top
// lane the sum of each lane times the weight in the mirrored lane. newWeak
// keeps every lane and every such sum below 2^16, so nothing carries.
const (
	evenBytes = 0x00ff00ff00ff00ff
	laneSum   = 0x0001000100010001 // top lane: Σ lanes
	laneTaper = 0x0007000500030001 // top lane: Σ (7-2k) × lane k
)

func pairs(x uint64) uint64 { return x&evenBytes + x>>8&evenBytes }

func hsum(lanes uint64) uint32 { return uint32(lanes * laneSum >> 48) }

// newWeak hashes p a word at a time, four words per step. Eight byte steps
// over word q add its byte sum S_q to a, and to b 8a_q + Σ(8-j)c_j, where
// a_q is a before the word and Σ(8-j)c_j = Σ(7-2k)(c2k + c2k+1) + Σ c2k.
// With t_q the pair sums of the words before q, the four words add
// hsum(t_4) to a and 32a + 8·hsum(t_1+t_2+t_3) + taper(t_4) + hsum(evens)
// to b. Lanes stay below 6 × 510, the tapered sum below 16 × 2040.
func newWeak(p []byte) weak {
	w := weak{n: uint32(len(p))}
	for ; len(p) >= 32; p = p[32:] {
		x0 := binary.LittleEndian.Uint64(p)
		x1 := binary.LittleEndian.Uint64(p[8:])
		x2 := binary.LittleEndian.Uint64(p[16:])
		x3 := binary.LittleEndian.Uint64(p[24:])
		t1 := pairs(x0)
		t2 := t1 + pairs(x1)
		t3 := t2 + pairs(x2)
		t4 := t3 + pairs(x3)
		evens := x0&evenBytes + x1&evenBytes + x2&evenBytes + x3&evenBytes
		w.b += 32*w.a + 8*hsum(t1+t2+t3) + uint32(t4*laneTaper>>48) + hsum(evens)
		w.a += hsum(t4)
	}
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
// table of (hash, lowest block) at most a quarter full, and per block the
// next block with the same hash, ascending, so a lookup meets its
// candidates lowest offset first. Blocks are stored 1-based; 0 is "none".
//
// In front of the table sits a filter of one bit per bucket of the same
// multiplicative hash, at least 32 bits per block (up to 2^27 blocks; it
// tops out at 2^32 bits). A clear bit proves no block has the hash, so the
// windows an edit slides through, the common probe, are ruled out by one
// bit test (false positives one in 32 at most) instead of a table probe.
type blockIndex struct {
	slots  []slot
	next   []int32
	shift  uint // 32 - log2(len(slots))
	filter []uint64
	fshift uint // 32 - log2(bits in filter)
}

type slot struct {
	hash uint32
	head int32
}

// indexPool recycles index storage: Compute runs outside every store lock,
// concurrently, and the store calls it once per pulled edit.
var indexPool = sync.Pool{New: func() any { return new(blockIndex) }}

// bucket spreads a weak hash over 2^(32-shift) buckets.
func bucket(h uint32, shift uint) uint32 { return h * 2654435761 >> shift }

// reuse returns s resized to n and zeroed, reallocating only to grow.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func buildIndex(base []byte, bs int) *blockIndex {
	// Blocks past 2^30 stay unindexed (the table tops out at 2^32 slots):
	// what only they could match travels as literals.
	n := min(len(base)/bs, 1<<30)
	logSize := bits.Len(uint(4*n - 1))
	logBits := min(logSize+3, 32)
	ix := indexPool.Get().(*blockIndex)
	ix.slots = reuse(ix.slots, 1<<logSize)
	ix.filter = reuse(ix.filter, max(1, 1<<logBits/64))
	if cap(ix.next) < n {
		ix.next = make([]int32, n)
	}
	ix.next, ix.shift, ix.fshift = ix.next[:n], uint(32-logSize), uint(32-logBits)
	// Descending, each block pushed on the front of its chain.
	for blk := n - 1; blk >= 0; blk-- {
		h := newWeak(base[blk*bs : (blk+1)*bs]).sum()
		s := ix.find(h)
		s.hash, ix.next[blk], s.head = h, s.head, int32(blk+1)
		f := bucket(h, ix.fshift)
		ix.filter[f/64] |= 1 << (f % 64)
	}
	return ix
}

// mayHold reports whether some block could hash to h; false is certain.
func (ix *blockIndex) mayHold(h uint32) bool {
	f := bucket(h, ix.fshift)
	return ix.filter[f/64]&(1<<(f%64)) != 0
}

// find returns the slot holding h, or the empty slot where h belongs.
func (ix *blockIndex) find(h uint32) *slot {
	mask := uint32(len(ix.slots) - 1)
	for i := bucket(h, ix.shift); ; i = (i + 1) & mask {
		if s := &ix.slots[i]; s.head == 0 || s.hash == h {
			return s
		}
	}
}

// skip rolls w on from window i, a miss, past every window the filter
// rules out and returns the first one it admits, with w covering it; when
// none is left it returns len(target)-bs+1, the end of the scan.
func (ix *blockIndex) skip(target []byte, i, bs int, w *weak) int {
	v := *w
	ins := target[i+bs:]
	outs := target[i : i+len(ins)]
	for k, in := range ins {
		v.roll(outs[k], in)
		if ix.mayHold(v.sum()) {
			*w = v
			return i + k + 1
		}
	}
	return len(target) - bs + 1
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
	if !m.idx.mayHold(h) {
		return -1
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
			i = m.idx.skip(target, i, bs, &w)
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
