package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Write-ahead-log framing for the one durable engine (walKV). One record:
//
//	u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload = u8 op | u16 key length | key | value
//
// opPut and opDel are the mutations; opCommit is the snapshot trailer — a
// snapshot file without a matching commit record is torn (a crash mid-
// snapshot) and must be ignored in favor of replaying the full log.
const (
	opPut    = 1
	opDel    = 2
	opCommit = 3

	walHeader = 8 // u32 length + u32 crc
)

// errTornRec marks a partial or checksum-failing record: the readable data
// ends here, which on the newest file is the footprint of a crash
// mid-write. errBadRec marks a record whose checksum holds but which this
// format cannot interpret — another format's file, never a crash — so no
// caller may treat it as a tail to truncate.
var (
	errTornRec = errors.New("persist: torn log record")
	errBadRec  = errors.New("persist: intact record of an unknown format")
)

// appendRecord frames one record onto buf.
func appendRecord(buf []byte, op byte, key string, val []byte) []byte {
	payloadLen := 1 + 2 + len(key) + len(val)
	start := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = append(buf, op)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(key)))
	buf = append(buf, key...)
	buf = append(buf, val...)
	crc := crc32.ChecksumIEEE(buf[start+walHeader:])
	binary.LittleEndian.PutUint32(buf[start+4:start+8], crc)
	return buf
}

// readRecord decodes one record from a file with remaining unread bytes;
// a header claiming more than that is torn, so a damaged length never
// sizes an allocation. io.EOF means a clean end.
func readRecord(r *bufio.Reader, remaining int64) (op byte, key string, val []byte, n int64, err error) {
	var hdr [walHeader]byte
	if _, err := io.ReadFull(r, hdr[:1]); err == io.EOF {
		return 0, "", nil, 0, io.EOF
	} else if err != nil {
		return 0, "", nil, 0, errTornRec
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, "", nil, 0, errTornRec
	}
	length := binary.LittleEndian.Uint32(hdr[:4])
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if length < 3 || int64(length) > remaining-walHeader {
		return 0, "", nil, 0, errTornRec
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, "", nil, 0, errTornRec
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, "", nil, 0, errTornRec
	}
	op = payload[0]
	keyLen := int(binary.LittleEndian.Uint16(payload[1:3]))
	if 3+keyLen > len(payload) {
		return 0, "", nil, 0, errBadRec
	}
	key = string(payload[3 : 3+keyLen])
	val = payload[3+keyLen:]
	return op, key, val, walHeader + int64(length), nil
}

// replayFile streams every intact record of one log file into fn and
// reports how many bytes they span — the truncation point for a torn
// tail. tolerateTail controls what a torn record means: the footprint of
// a crash mid-write on the newest file (stop cleanly), or real corruption
// on an older one (error). A record fn rejects is corruption either way.
func replayFile(path string, tolerateTail bool, fn func(op byte, key string, val []byte) error) (records, valid int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, fmt.Errorf("persist: opening %s: %w", path, err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, 0, fmt.Errorf("persist: opening %s: %w", path, err)
	}
	r := bufio.NewReader(f)
	for {
		op, key, val, n, err := readRecord(r, fi.Size()-valid)
		if err == io.EOF || (err == errTornRec && tolerateTail) {
			return records, valid, nil
		}
		if err == nil {
			err = fn(op, key, val)
		}
		if err != nil {
			return records, valid, fmt.Errorf("persist: %s corrupt at byte %d: %w", path, valid, err)
		}
		records++
		valid += n
	}
}

// writeSnapshotFile streams every live pair of tab (in ascending key
// order) into path as framed opPut records, sealed by an opCommit trailer
// carrying the pair count and the log watermark (the first log sequence
// number the snapshot does NOT cover), and fsyncs. The caller serializes
// access to tab.
func writeSnapshotFile(path string, tab *table, watermark uint64) (pairs int64, err error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, fmt.Errorf("persist: creating snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var buf []byte
	var count int64
	var werr error
	tab.ix.ascend("", func(k string) bool {
		v, ok := tab.get(k)
		if !ok {
			return true
		}
		buf = appendRecord(buf[:0], opPut, k, v)
		if _, err := w.Write(buf); err != nil {
			werr = err
			return false
		}
		count++
		return true
	})
	if werr == nil {
		var trailer [16]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(count))
		binary.LittleEndian.PutUint64(trailer[8:], watermark)
		buf = appendRecord(buf[:0], opCommit, "", trailer[:])
		_, werr = w.Write(buf)
	}
	if werr == nil {
		werr = w.Flush()
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return 0, fmt.Errorf("persist: writing snapshot: %w", werr)
	}
	return count, nil
}

// loadSnapshotFile replays a snapshot into tab, validating every frame and
// requiring the opCommit trailer to match the pair count — a torn or
// miscounted snapshot loads nothing and reports ok=false so the caller
// falls back to full log replay.
func loadSnapshotFile(path string, tab *table) (pairs int64, watermark uint64, ok bool) {
	staged := newTable()
	var committed, count int64
	sealed := false
	_, _, err := replayFile(path, true, func(op byte, key string, val []byte) error {
		switch op {
		case opPut:
			staged.put(key, val)
			count++
		case opCommit:
			if len(val) == 16 {
				committed = int64(binary.LittleEndian.Uint64(val[:8]))
				watermark = binary.LittleEndian.Uint64(val[8:])
				sealed = true
			}
		default:
			return errBadRec
		}
		return nil
	})
	if err != nil || !sealed || committed != count {
		return 0, 0, false
	}
	*tab = *staged
	return count, watermark, true
}

// syncDir fsyncs a directory so renames and newly created files survive a
// crash; not every filesystem supports it, so failures are ignored.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
