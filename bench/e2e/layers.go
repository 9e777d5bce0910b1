package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"coda/internal/persist"
	"coda/internal/store"
)

func (b *bench) note(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

// unexplained keeps the largest share of an end-to-end timing that a layer
// chain left unaccounted for.
func (b *bench) unexplained(share float64) {
	if share > b.values["chain.unexplained_ratio"] {
		b.set("chain.unexplained_ratio", share)
	}
}

// setDataLayers reports httpapi, store and persist from the spans of a
// data workload's measured section. PUTs are reported for putKey alone
// when it is set: the puts put_ms.p50 times. before is the store's reply
// accounting when the section began, fallbacks how many of its pulls were
// answered in full because the delta was too large.
func (b *bench) setDataLayers(spans []span, putKey string, comp *compactor, n *node, before store.Stats, fallbacks int) {
	putRTT, putHandler, putStore := putsOf(spans, putKey)
	b.set("httpapi.put_rtt_ms.p50", median(putRTT))
	b.set("httpapi.put_handler_ms.p50", median(putHandler))
	b.set("store.put_ms.p50", median(putStore))
	// GETs are reported for delta pulls, the ones pull_ms.p50 times.
	getRTT, getHandler := deltaGets(spans)
	b.set("httpapi.get_rtt_ms.p50", median(getRTT))
	b.set("httpapi.get_handler_ms.p50", median(getHandler))
	b.setHTTPTotals(spans)

	b.set("store.get_delta_ms.p50", median(durations(spans, "store.get delta")))
	b.set("store.get_full_ms.p50", median(durations(spans, "store.get full")))
	// Every delta reply and every fallback asked for a delta; the ones that
	// did not compute one found it cached.
	st := n.hs.Stats()
	if asked := st.DeltaReplies - before.DeltaReplies + fallbacks; asked > 0 {
		b.set("store.delta_cache_hit_ratio", 1-float64(st.DeltaComputes-before.DeltaComputes)/float64(asked))
	}

	b.set("persist.putbatch_us.p50", 1000*median(durations(spans, "persist.putbatch")))
	b.set("persist.delete_us.p50", 1000*median(durations(spans, "persist.delete")))
	b.set("persist.compact_ms", median(comp.compacts))
	b.set("persist.open_ms", 1000*n.kv.Stats().OpenSeconds)

	// Amplification since boot: bytes that reached the directory, and bytes
	// it holds now, per byte the store asked to keep.
	dir := filepath.Join(n.dir, "store")
	size := dirBytes(dir)
	written := comp.written + size - comp.lastSize
	n.kv.mu.Lock()
	user, stream := n.kv.userBytes, n.kv.stream
	n.kv.mu.Unlock()
	if user > 0 {
		b.set("persist.write_amp", float64(written)/float64(user))
	}
	var live int64
	if cur, err := n.kv.Cursor(""); err == nil {
		for cur.Next() {
			live += int64(len(cur.Key()) + len(cur.Value()))
		}
		cur.Close()
	}
	if live > 0 {
		b.set("persist.space_amp", float64(size)/float64(live))
	}
	if err := b.replayOnBolt(stream); err != nil {
		b.failf(0, "bolt replay: %v", err)
	}
}

// setHTTPTotals counts the round trips of a phase.
func (b *bench) setHTTPTotals(spans []span) {
	var requests, out, in float64
	ids := map[string]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "http ") {
			requests++
			out += float64(s.Out)
			in += float64(s.In)
			ids[s.Req] = true
		}
	}
	b.set("httpapi.requests", requests)
	b.set("httpapi.req_bytes", out)
	b.set("httpapi.resp_bytes", in)
	// Every logical call carries one request id on all its attempts.
	b.set("httpapi.retries", requests-float64(len(ids)))
}

// replayOnBolt replays the start of the workload's own persist stream on a
// fresh bolt: DSN, then reopens it: the numbers that decide whether the
// second durable backend earns its keep.
func (b *bench) replayOnBolt(stream []kvOp) error {
	if len(stream) == 0 {
		return nil
	}
	dsn := "bolt:" + filepath.Join(b.dataRoot, "bolt-replay")
	kv, err := persist.Open(dsn)
	if err != nil {
		return err
	}
	filler := make([]byte, b.sz.ObjectBytes)
	var put []float64
	for _, op := range stream {
		if op.size < 0 {
			if err := kv.Delete(op.key); err != nil {
				kv.Close()
				return err
			}
			continue
		}
		for len(filler) < op.size {
			filler = append(filler, filler...)
		}
		t0 := b.rec.now()
		err := kv.PutBatch([]persist.Item{{Key: op.key, Value: filler[:op.size]}})
		put = append(put, float64(b.rec.now()-t0)/1000)
		if err != nil {
			kv.Close()
			return err
		}
	}
	if err := kv.Close(); err != nil {
		return err
	}
	kv, err = persist.Open(dsn)
	if err != nil {
		return err
	}
	b.set("persist.bolt_putbatch_us.p50", median(put))
	b.set("persist.bolt_open_ms", 1000*kv.Stats().OpenSeconds)
	return kv.Close()
}

// putsOf returns the round-trip, handler and store times, in ms, of the
// PUTs of key (of every key when key is empty).
func putsOf(spans []span, key string) (rtt, handler, st []float64) {
	byID := map[int64]span{}
	for _, s := range spans {
		if s.Name == "handler store PUT" || s.Name == "http store PUT" {
			byID[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Name != "store.put" || (key != "" && s.Key != key) {
			continue
		}
		st = append(st, ms(s.dur()))
		if h, ok := byID[s.Parent]; ok {
			handler = append(handler, ms(h.dur()))
			if rt, ok := byID[h.Parent]; ok {
				rtt = append(rtt, ms(rt.dur()))
			}
		}
	}
	return rtt, handler, st
}

// deltaGets returns the round-trip and handler times, in ms, of the GETs
// the store answered with a delta.
func deltaGets(spans []span) (rtt, handler []float64) {
	byID := map[int64]span{}
	for _, s := range spans {
		if s.Name == "handler store GET" || s.Name == "http store GET" {
			byID[s.ID] = s
		}
	}
	for _, s := range spans {
		if s.Name != "store.get delta" {
			continue
		}
		if h, ok := byID[s.Parent]; ok {
			handler = append(handler, ms(h.dur()))
			if rt, ok := byID[h.Parent]; ok {
				rtt = append(rtt, ms(rt.dur()))
			}
		}
	}
	return rtt, handler
}

// handlerMinusStore returns, per PUT of key, the handler's time outside
// its store write, in ms.
func handlerMinusStore(spans []span, key string) []float64 {
	handlers := map[int64]span{}
	for _, s := range spans {
		if s.Name == "handler store PUT" {
			handlers[s.ID] = s
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == "store.put" && s.Key == key {
			if h, ok := handlers[s.Parent]; ok {
				out = append(out, ms(h.dur()-s.dur()))
			}
		}
	}
	return out
}

// chainPutPull prints how a data workload's put timing, and its pull timing
// when it has one, break down by layer and records what the breakdown
// leaves unexplained.
func (b *bench) chainPutPull() {
	v := b.values
	put, rtt, handler, sput := v["put_ms.p50"], v["httpapi.put_rtt_ms.p50"], v["httpapi.put_handler_ms.p50"], v["store.put_ms.p50"]
	kv := (v["persist.putbatch_us.p50"] + v["persist.delete_us.p50"]) / 1000
	b.note("chain put_ms.p50 %.3f = httpapi.put_rtt_ms.p50 %.3f + client %.3f; rtt = httpapi.put_handler_ms.p50 %.3f + transport %.3f; handler = store.put_ms.p50 %.3f + publish and encode %.3f; store.put = persist putbatch+delete %.3f + copy and locks %.3f",
		put, rtt, put-rtt, handler, rtt-handler, sput, handler-sput, kv, sput-kv)
	if put > 0 {
		b.unexplained(math.Abs(put-rtt) / put)
	}
	if v["pull_ms.p50"] == 0 {
		return
	}
	pull, grtt, ghandler, sget, apply := v["pull_ms.p50"], v["httpapi.get_rtt_ms.p50"], v["httpapi.get_handler_ms.p50"], v["store.get_delta_ms.p50"], v["delta.apply_ms.p50"]
	b.note("chain pull_ms.p50 %.3f = httpapi.get_rtt_ms.p50 %.3f + delta.apply_ms.p50 %.3f + client %.3f; rtt = httpapi.get_handler_ms.p50 %.3f + transport %.3f; handler = store.get_delta_ms.p50 %.3f + encode %.3f",
		pull, grtt, apply, pull-grtt-apply, ghandler, grtt-ghandler, sget, ghandler-sget)
	if pull > 0 {
		b.unexplained(math.Abs(pull-grtt-apply) / pull)
	}
}
