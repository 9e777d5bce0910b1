package trace

import (
	"context"
	"net/http"
	"strings"
	"testing"
)

// wellFormed is the traceparent shape parseHeader must accept and nothing
// else: 52 bytes, <32 hex>-<16 hex>-<2 hex> (W3C's traceparent without its
// "00-" version), neither id all zeros.
func wellFormed(v string) bool {
	if len(v) != 52 || v[32] != '-' || v[49] != '-' {
		return false
	}
	for i := 0; i < len(v); i++ {
		if i == 32 || i == 49 {
			continue
		}
		if !strings.ContainsRune("0123456789abcdefABCDEF", rune(v[i])) {
			return false
		}
	}
	return strings.Trim(v[:32], "0") != "" && strings.Trim(v[33:49], "0") != ""
}

type fuzzKey struct{}

// FuzzTraceparent holds the X-Coda-Traceparent decoder, which every
// listener runs on every traced request, to four properties: parseHeader
// never panics; it accepts exactly the well-formed shape, decoding the ids
// the header spells; Inject then Extract round-trips a span's trace id and
// span id, with flags 01; and with tracing off, Extract
// leaves the context as it was, as it does for any header it refuses.
func FuzzTraceparent(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		rp, ok := parseHeader(v)
		if ok != wellFormed(v) {
			t.Fatalf("parseHeader(%q) ok=%v, well-formed=%v", v, ok, wellFormed(v))
		}
		h := http.Header{}
		h.Set(Header, v)
		ctx := context.WithValue(context.Background(), fuzzKey{}, v)
		if !ok {
			if Extract(ctx, h) != ctx {
				t.Fatalf("Extract changed the context for the refused header %q", v)
			}
			return
		}
		if spelled := rp.traceID.String() + "-" + rp.spanID.String() + "-"; !strings.EqualFold(spelled, v[:50]) {
			t.Fatalf("parseHeader(%q) decoded %s", v, spelled)
		}

		// A span started under the adopted parent, injected and extracted
		// again, arrives as itself. It is never ended, so nothing is recorded.
		sctx, sp := Start(Extract(ctx, h), "hop")
		if sp.TraceID() != rp.traceID || sp.data.Parent != rp.spanID {
			t.Fatalf("span under %q: trace %s parent %s", v, sp.TraceID(), sp.data.Parent)
		}
		out := http.Header{}
		Inject(sctx, out)
		back, ok := parseHeader(out.Get(Header))
		if !ok || back.traceID != sp.TraceID() || back.spanID != sp.data.ID || !strings.HasSuffix(out.Get(Header), "-01") {
			t.Fatalf("Inject→Extract of %s-%s gave %q", sp.TraceID(), sp.data.ID, out.Get(Header))
		}

		SetEnabled(false)
		defer SetEnabled(true)
		if Extract(ctx, h) != ctx {
			t.Fatalf("Extract with tracing off changed the context for %q", v)
		}
	})
}
