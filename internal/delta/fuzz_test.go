package delta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// wire builds a delta encoding by hand: uvarints for the ints, raw bytes
// for the byte slices.
func wire(parts ...any) []byte {
	var buf []byte
	for _, p := range parts {
		switch v := p.(type) {
		case uint64:
			buf = binary.AppendUvarint(buf, v)
		case int:
			buf = binary.AppendUvarint(buf, uint64(v))
		case []byte:
			buf = append(buf, v...)
		}
	}
	return buf
}

// TestHostileEncodingsAreCorrupt: the decoder runs on every pull reply and
// every pushed frame, so lengths a peer made up must come back as
// ErrCorrupt — the first case used to wrap negative and panic in the slice.
func TestHostileEncodingsAreCorrupt(t *testing.T) {
	kindCopy, kindLit := []byte{0}, []byte{1}
	for name, in := range map[string][]byte{
		"literal length 1<<63+5":         wire(4, 0, 0, 1, kindLit, uint64(1<<63+5)),
		"literal length 1<<62":           wire(4, 0, 0, 1, kindLit, uint64(1<<62), []byte("abc")),
		"copy offset 1<<63":              wire(4, 8, 8, 1, kindCopy, uint64(1<<63), 8),
		"block size 1<<63":               wire(uint64(1<<63), 0, 0, 0),
		"base length 1<<63":              wire(4, uint64(1<<63), 0, 0),
		"target length 1<<64-1":          wire(4, 0, ^uint64(0), 0),
		"op count beyond the bytes left": wire(4, 0, 0, 3, kindLit, 1, []byte("a"), kindLit),
		"op count 1<<40":                 wire(4, 0, 0, uint64(1<<40)),
	} {
		if d, err := Unmarshal(in); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Unmarshal = %+v, %v; want ErrCorrupt", name, d, err)
		}
	}
}

func TestApplyRejectsOverflowingCopy(t *testing.T) {
	base := make([]byte, 128)
	for name, op := range map[string]Op{
		"offset + length wraps negative": {Off: 1 << 62, Len: 1 << 62},
		"length alone beyond the base":   {Off: 0, Len: 1<<63 - 1},
		"offset at the end, length 1":    {Off: 128, Len: 1},
	} {
		d := &Delta{BlockSize: 64, BaseLen: 128, TargetLen: 128, Ops: []Op{op}}
		if out, err := Apply(base, d); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Apply = %d bytes, %v; want ErrCorrupt", name, len(out), err)
		}
	}
}

// TestApplyAllocatesWhatTheOpsCarry: the output buffer is sized from the
// validated ops, never from the header's word.
func TestApplyAllocatesWhatTheOpsCarry(t *testing.T) {
	d, err := Unmarshal(wire(64, 0, uint64(1<<40), 0))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := Apply(nil, d)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Apply = %d bytes, %v; want ErrCorrupt", len(out), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a delta that declares a 1 TiB target allocated %d bytes", grew)
	}
	// More ops than the declared target is caught at the op that overshoots.
	base := make([]byte, 64)
	over := &Delta{BlockSize: 64, BaseLen: 64, TargetLen: 100, Ops: []Op{{Len: 64}, {Len: 64}}}
	if _, err := Apply(base, over); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ops beyond TargetLen: %v; want ErrCorrupt", err)
	}
}

// FuzzUnmarshal: the decoder never panics; what it accepts re-encodes to an
// equal delta whose WireSize is its encoded length, and applies to a zero
// base of the declared length with a value or ErrCorrupt, the output exactly
// the validated ops' bytes.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := Unmarshal(in)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Unmarshal error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		enc := d.Marshal()
		if d.WireSize() != len(enc) {
			t.Fatalf("WireSize %d, Marshal %d bytes", d.WireSize(), len(enc))
		}
		if back, err := Unmarshal(enc); err != nil || !reflect.DeepEqual(back, d) {
			t.Fatalf("re-decoding %+v gave %+v, %v", d, back, err)
		}
		if d.BaseLen > 1<<20 || d.TargetLen > 4<<20 {
			return // Apply is exercised on sizes a fuzz worker can hold
		}
		out, err := Apply(make([]byte, d.BaseLen), d)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Apply error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if int64(len(out)) != d.TargetLen || cap(out) != len(out) {
			t.Fatalf("Apply returned len %d cap %d for a declared target of %d", len(out), cap(out), d.TargetLen)
		}
	})
}

// FuzzCompute: the delta reproduces the target and is, byte for byte, the
// one the reference implementation produces. Besides the committed corpus it
// starts from 32 KiB objects in both end-to-end edit shapes.
func FuzzCompute(f *testing.F) {
	bases, targets := objectPairs(23, 2)
	for i := range bases {
		f.Add(bases[i], targets[i], 0)
	}
	f.Fuzz(func(t *testing.T, base, target []byte, bs int) {
		if bs %= 5000; bs < 0 {
			bs = -bs
		}
		d := Compute(base, target, bs)
		got, err := Apply(base, d)
		if err != nil || !bytes.Equal(got, target) {
			t.Fatalf("Apply(base, Compute(base, target, %d)) = %d bytes, %v; target is %d bytes", bs, len(got), err, len(target))
		}
		if !bytes.Equal(d.Marshal(), computeRef(base, target, bs).Marshal()) {
			t.Fatalf("block %d, base %d, target %d: delta differs from the reference", bs, len(base), len(target))
		}
	})
}
