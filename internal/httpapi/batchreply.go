package httpapi

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// The shapes of the batch lookup and claim replies (see digestsShape), named
// by the error a reply of any other shape gets. A server before digests
// answers JSON, which a client refuses the same way: upgrade servers and
// clients together.
const (
	lookupReplyShape = "an ⌈n/8⌉-byte presence bitmap, then each hit's score as a little-endian float64"
	claimReplyShape  = "an ⌈n/8⌉-byte grant bitmap"
)

func bitmapLen(n int) int { return (n + 7) / 8 }

// readBitmap checks a reply for n keys: an ⌈n/8⌉-byte bitmap with no bit
// set past n — bit i, least significant first, answers key i — then perHit
// bytes for each set bit. It returns the bitmap and what follows it; a
// reply of any other length or padding is an error naming shape.
func readBitmap(reply []byte, n, perHit int, shape string) (bm, rest []byte, err error) {
	m := bitmapLen(n)
	hits := 0
	for _, b := range reply[:min(m, len(reply))] {
		hits += bits.OnesCount8(b)
	}
	if len(reply) != m+perHit*hits || n%8 != 0 && reply[m-1]>>(n%8) != 0 {
		return nil, nil, fmt.Errorf("httpapi: batch reply of %d bytes for %d keys is not %s", len(reply), n, shape)
	}
	return reply[:m], reply[m:], nil
}

func bitSet(bm []byte, i int) bool { return bm[i/8]>>(i%8)&1 == 1 }
func setBit(bm []byte, i int)      { bm[i/8] |= 1 << (i % 8) }

// readScores reads a lookup reply for n keys. Only once the whole reply has
// checked out does it call hit, in order, with the position and score of
// each published key.
func readScores(reply []byte, n int, hit func(i int, score float64)) error {
	bm, scores, err := readBitmap(reply, n, 8, lookupReplyShape)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if bitSet(bm, i) {
			hit(i, math.Float64frombits(binary.LittleEndian.Uint64(scores)))
			scores = scores[8:]
		}
	}
	return nil
}

// readGrants reads a claim reply for n keys, then calls grant with each
// key's position and decision.
func readGrants(reply []byte, n int, grant func(i int, granted bool)) error {
	bm, _, err := readBitmap(reply, n, 0, claimReplyShape)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		grant(i, bitSet(bm, i))
	}
	return nil
}
