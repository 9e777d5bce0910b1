package httpapi

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestStreamLeaseDropIsAnError: a stream that closes after one update
// frame and no end frame — coda-server restarted or went away — hands fn
// that frame and then fails with an error wrapping io.ErrUnexpectedEOF. A
// stream cut because the caller's ctx ended is still context.Canceled.
func TestStreamLeaseDropIsAnError(t *testing.T) {
	hold := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, ": heartbeat\n\nevent: update\ndata: {\"lease_id\":\"L1\",\"key\":\"k\",\"version\":2}\n\n")
		w.(http.Flusher).Flush()
		if strings.HasSuffix(r.URL.Path, "/held/stream") {
			select {
			case <-r.Context().Done():
			case <-hold:
			}
		}
	}))
	defer ts.Close()
	defer close(hold)
	c := NewClient(ts.URL, "sse")

	var got []uint64
	err := c.StreamLease(context.Background(), "L1", func(n Notification) error {
		got = append(got, n.Version)
		return nil
	})
	if !errors.Is(err, io.ErrUnexpectedEOF) || len(got) != 1 || got[0] != 2 {
		t.Fatalf("dropped stream: frames %v, err %v; want version 2 then io.ErrUnexpectedEOF", got, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err = c.StreamLease(ctx, "held", func(Notification) error {
		cancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("stream cut by the caller's ctx: %v, want context.Canceled", err)
	}
}

// TestStreamLeaseLineLimit: StreamLease reads with maxSSEFrame as its line
// bound, so a line of that length is an error, not an allocation without
// end.
func TestStreamLeaseLineLimit(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "data: ")
		_, _ = io.Copy(w, io.LimitReader(repeatByte('a'), maxSSEFrame))
	}))
	defer ts.Close()
	err := NewClient(ts.URL, "sse").StreamLease(context.Background(), "L1", func(Notification) error { return nil })
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: %v, want bufio.ErrTooLong", maxSSEFrame+len("data: "), err)
	}
}

type repeatByte byte

func (b repeatByte) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(b)
	}
	return len(p), nil
}

// sseFrame is one dispatched frame: its event and data fields.
type sseFrame struct{ event, data string }

// sseReference is readSSE's specification over a whole input, written
// against a plain split on "\n": the frames its blank lines dispatch, and
// whether a line of maxLine bytes or more (a trailing "\r" included) cuts
// the stream first.
func sseReference(in []byte, maxLine int) (frames []sseFrame, tooLong bool) {
	lines := bytes.Split(in, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1] // a final newline ends a line, it starts none
	}
	var cur sseFrame
	for _, raw := range lines {
		if len(raw) >= maxLine {
			return frames, true
		}
		line := string(bytes.TrimSuffix(raw, []byte("\r")))
		field, value, hasColon := strings.Cut(line, ":")
		switch {
		case line == "":
			frames, cur = append(frames, cur), sseFrame{}
		case hasColon && field == "event":
			cur.event = strings.TrimSpace(value)
		case hasColon && field == "data":
			cur.data = strings.TrimSpace(value)
		}
	}
	return frames, false
}

var errStopFrame = errors.New("stop here")

// FuzzSSEStream: over any bytes, line limit and stopping frame, readSSE
// never panics and dispatches exactly the reference's frames, in order, up
// to the first of: the frame whose dispatch fails (its error returned
// as-is), a line of the limit or more (bufio.ErrTooLong), and the end of
// the input (io.ErrUnexpectedEOF).
func FuzzSSEStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte, limit, stopAt uint8) {
		maxLine := int(limit)%128 + 1
		var got []sseFrame
		err := readSSE(bytes.NewReader(in), maxLine, func(event, data string) error {
			got = append(got, sseFrame{event, data})
			if len(got) == int(stopAt) {
				return errStopFrame
			}
			return nil
		})
		want, tooLong := sseReference(in, maxLine)
		stopped := stopAt > 0 && int(stopAt) <= len(want)
		if stopped {
			want = want[:stopAt]
		}
		if len(got) != len(want) {
			t.Fatalf("%q (limit %d): dispatched %q, want %q", in, maxLine, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%q (limit %d): frame %d is %q, want %q", in, maxLine, i, got[i], want[i])
			}
		}
		switch {
		case stopped:
			if err != errStopFrame {
				t.Fatalf("%q: err %v after the failing dispatch, want its error as-is", in, err)
			}
		case tooLong:
			if !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("%q (limit %d): err %v, want bufio.ErrTooLong", in, maxLine, err)
			}
		default:
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("%q (limit %d): err %v, want io.ErrUnexpectedEOF", in, maxLine, err)
			}
		}
	})
}
