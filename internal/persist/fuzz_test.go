package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// record is one record replayFile delivered.
type record struct {
	op  byte
	key string
	val []byte
}

// FuzzWALRecord reads arbitrary bytes as a log segment, with and without a
// tolerated tail, and as a snapshot. Nothing panics; no payload is sized
// past the bytes the file has left; appendRecord of the delivered records
// is the file's first valid bytes; and a snapshot loads exactly when it is
// puts sealed by an opCommit trailer that counts them.
func FuzzWALRecord(f *testing.F) {
	trailer := func(count, watermark uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, count), watermark)
	}
	put := appendRecord(nil, opPut, "o/k/0000000000000001", []byte("payload"))
	badCRC := bytes.Clone(put)
	badCRC[len(badCRC)-1] ^= 1
	keyPast := []byte{opPut, 200, 0, 'k'} // a key of 200 bytes in a 4-byte payload
	keyPast = append(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil,
		uint32(len(keyPast))), crc32.ChecksumIEEE(keyPast)), keyPast...)
	for _, seed := range [][]byte{
		put,
		appendRecord(nil, opDel, "o/k/0000000000000001", nil),
		appendRecord(bytes.Clone(put), opCommit, "", trailer(1, 3)),
		appendRecord(bytes.Clone(put), opCommit, "", trailer(2, 3)), // miscounted
		put[:walHeader-3], // torn header
		append(binary.LittleEndian.AppendUint32(nil, 1<<20), put[4:]...), // a header claiming 1 MiB
		put[:len(put)-3], // torn payload
		badCRC,           // bad CRC
		keyPast,          // key length past the payload
		append(bytes.Clone(put), put[:walHeader]...), // a put, then a bare header
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		path := filepath.Join(t.TempDir(), "seg-00000001.log")
		if err := os.WriteFile(path, in, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []record
		var replayErr error // the tolerant replay's, what loadSnapshotFile sees
		for _, tolerate := range []bool{false, true} {
			recs = recs[:0]
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n, valid, err := replayFile(path, tolerate, func(op byte, key string, val []byte) error {
				recs = append(recs, record{op, key, val})
				return nil
			})
			runtime.ReadMemStats(&after)
			if tolerate {
				replayErr = err
			}
			// The file's bytes, the delivered copies, a read buffer and the
			// file handle; a payload sized from a damaged length is more.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(4*len(in))+64<<10 {
				t.Fatalf("replaying %d bytes allocated %d", len(in), grew)
			}
			switch {
			case err == nil && !tolerate && valid != int64(len(in)):
				t.Fatalf("clean replay of %d bytes stopped at %d", len(in), valid)
			case err != nil && tolerate && !errors.Is(err, errBadRec):
				t.Fatalf("tolerant replay failed on %v, not an intact record of an unknown format", err)
			case err != nil && !errors.Is(err, errBadRec) && !errors.Is(err, errTornRec):
				t.Fatalf("replay failed with %v", err)
			case n != int64(len(recs)) || valid > int64(len(in)):
				t.Fatalf("%d records over %d bytes reported, %d delivered from %d", n, valid, len(recs), len(in))
			}
			var again []byte
			unread := int64(len(in))
			for _, r := range recs {
				// The payload buffer holds op, key length, key and value.
				if size := int64(3 + len(r.key) + cap(r.val)); size > unread-walHeader {
					t.Fatalf("a %d-byte payload read with %d bytes left", size, unread)
				}
				before := len(again)
				again = appendRecord(again, r.op, r.key, r.val)
				unread -= int64(len(again) - before)
			}
			if !bytes.Equal(again, in[:valid]) {
				t.Fatalf("re-encoding %d delivered records does not give the first %d bytes", len(recs), valid)
			}
		}

		// recs is the tolerant replay: what loadSnapshotFile reads.
		puts, live := int64(0), map[string]string{}
		var committed, watermark uint64
		sealed, foreign := false, false
		for _, r := range recs {
			switch {
			case r.op == opPut:
				puts++
				live[r.key] = string(r.val)
			case r.op == opCommit && len(r.val) == 16:
				committed, watermark, sealed = binary.LittleEndian.Uint64(r.val), binary.LittleEndian.Uint64(r.val[8:]), true
			case r.op != opCommit:
				foreign = true
			}
		}
		want := replayErr == nil && !foreign && sealed && committed == uint64(puts)
		tab := newTable()
		pairs, wm, ok := loadSnapshotFile(path, tab)
		if ok != want {
			t.Fatalf("snapshot of %d puts, trailer %v counting %d: loaded %v", puts, sealed, committed, ok)
		}
		if !ok {
			return
		}
		if pairs != puts || wm != watermark || tab.len() != len(live) {
			t.Fatalf("snapshot loaded %d pairs to watermark %d, %d keys; want %d, %d, %d", pairs, wm, tab.len(), puts, watermark, len(live))
		}
		for k, v := range live {
			if got, _ := tab.get(k); string(got) != v {
				t.Fatalf("snapshot key %q holds %q, want %q", k, got, v)
			}
		}
	})
}
