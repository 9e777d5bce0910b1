package httpapi

import (
	"fmt"
	"strconv"
)

// The shapes of the positional batch replies (batchLookupReply,
// batchClaimReply), named by the error a reply of any other shape gets. A
// server that still answers with a map keyed by unit key gets it too:
// upgrade servers and clients together.
const (
	lookupReplyShape = `{"scores":[number|null,...]}`
	claimReplyShape  = `{"granted":[bool,...]}`
)

// score is one entry of a lookup reply as the client reads it: a number,
// or null for a key nobody has published.
type score struct {
	v  float64
	ok bool
}

// readScores reads a lookup reply into dst, which holds one entry per key
// sent. On error dst holds nothing meaningful.
func readScores(reply []byte, dst []score) error {
	return readAligned(reply, "scores", lookupReplyShape, len(dst), func(i int, tok []byte) bool {
		if string(tok) == "null" {
			dst[i] = score{}
			return true
		}
		if !jsonNumber(tok) {
			return false
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		dst[i] = score{v: v, ok: true}
		return err == nil // a number past float64's range
	})
}

// jsonNumber reports whether tok is a JSON number:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func jsonNumber(tok []byte) bool {
	i := 0
	digits := func() bool {
		start := i
		for i < len(tok) && '0' <= tok[i] && tok[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(tok) && tok[i] == '-' {
		i++
	}
	if i < len(tok) && tok[i] == '0' {
		i++
	} else if !digits() {
		return false
	}
	if i < len(tok) && tok[i] == '.' {
		if i++; !digits() {
			return false
		}
	}
	if i < len(tok) && (tok[i] == 'e' || tok[i] == 'E') {
		if i++; i < len(tok) && (tok[i] == '+' || tok[i] == '-') {
			i++
		}
		if !digits() {
			return false
		}
	}
	return i == len(tok)
}

// readGrants is readScores for a claim reply; null reads as denied.
func readGrants(reply []byte, dst []bool) error {
	return readAligned(reply, "granted", claimReplyShape, len(dst), func(i int, tok []byte) bool {
		dst[i] = string(tok) == "true"
		return dst[i] || string(tok) == "false" || string(tok) == "null"
	})
}

// readAligned parses a positional batch reply, {"<field>":[entry,...]},
// handing each entry's token to entry with its position. The reply must
// answer exactly the n keys sent, every entry must be one entry accepts,
// and nothing but JSON whitespace may come between the tokens: what it
// accepts is JSON that encoding/json reads the same way. Anything else is
// an error naming shape, and the search that sent the batch degrades.
func readAligned(reply []byte, field, shape string, n int, entry func(i int, tok []byte) bool) error {
	p := replyParser{b: reply}
	count := 0
	ok := p.lit("{") && p.lit(`"`+field+`"`) && p.lit(":") && p.lit("[")
	if ok && !p.lit("]") {
		for {
			if count == n {
				return fmt.Errorf("httpapi: batch reply answers more than the %d keys sent, want %s aligned with the request", n, shape)
			}
			if ok = entry(count, p.token()); !ok {
				break
			}
			count++
			if p.lit("]") {
				break
			}
			if ok = p.lit(","); !ok {
				break
			}
		}
	}
	if !ok || !p.lit("}") || !p.end() {
		return fmt.Errorf("httpapi: batch reply is not %s (at byte %d)", shape, p.i)
	}
	if count != n {
		return fmt.Errorf("httpapi: batch reply answers %d of the %d keys sent, want %s aligned with the request", count, n, shape)
	}
	return nil
}

// replyParser is a cursor over a batch reply.
type replyParser struct {
	b []byte
	i int
}

func (p *replyParser) space() {
	for p.i < len(p.b) && (p.b[p.i] == ' ' || p.b[p.i] == '\t' || p.b[p.i] == '\n' || p.b[p.i] == '\r') {
		p.i++
	}
}

// lit consumes s after any whitespace; false, and nothing consumed past the
// whitespace, when s is not next.
func (p *replyParser) lit(s string) bool {
	p.space()
	if len(p.b)-p.i < len(s) || string(p.b[p.i:p.i+len(s)]) != s {
		return false
	}
	p.i += len(s)
	return true
}

// token consumes the run of number and literal bytes after any whitespace.
func (p *replyParser) token() []byte {
	p.space()
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '.' || c == '+' || c == '-') {
			break
		}
	}
	return p.b[start:p.i]
}

// end reports whether only whitespace is left.
func (p *replyParser) end() bool {
	p.space()
	return p.i == len(p.b)
}
