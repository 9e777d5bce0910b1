package main

// The benchmark's fixed vocabulary. BENCHMARK.json at the repository root
// lists exactly these workloads and metrics; TestCatalogueMatchesBenchmarkJSON
// keeps the two in step.

// workload names one set of inputs the benchmark runs.
type workload struct {
	Name string
	Why  string
	run  func(*bench) error
}

// metricDef is one catalogue entry. Bound is set for end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
}

var workloads = []workload{
	{"search-cold-ts", "few expensive units: the Fig 11 graph (48 pipelines) searched against an empty DARR, so matrix/nn/core fold fits are the whole wall and DARR, httpapi, persist are under 1%", runSearchColdTS},
	{"search-coop-grid", "many small units: 132 regression units, two clients sharing one DARR, then all-hit warm searches, so per-unit bookkeeping, the DARR batch protocol and HTTP round trips dominate and kernels do nothing", runSearchCoopGrid},
	{"sync-delta", "store + delta + persist only: put, delta pull, full pull and full fallback on 64 x 32 KiB objects side by side, no search and no leases, so a delta-side gain that costs writes or wire bytes shows", runSyncDelta},
	{"push-fanout", "replication only: one hot object with 1000 in-process leases and one SSE lease beside unleased keys, so a fanout change that slows the writer or the subscriber shows here and not in sync-delta", runPushFanout},
}

// endToEnd is what a user of the system sees, in the same three terms on
// every workload (README.md says which operation each workload's op is,
// and why the bounds are as wide as the contract allows).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms.p50", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer is printed by the -trace pass. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	// The workload's own user-visible numbers, by their specific names.
	{"search_s", "s", "lower", 0},
	{"coop_complete_s", "s", "lower", 0},
	{"warm_search_ms.p50", "ms", "lower", 0},
	{"warm_search_ms.p90", "ms", "lower", 0},
	{"put_ms.p50", "ms", "lower", 0},
	{"put_ms.p90", "ms", "lower", 0},
	{"pull_ms.p50", "ms", "lower", 0},
	{"pull_full_ms.p50", "ms", "lower", 0},
	{"sync_ops_per_s", "1/s", "higher", 0},
	{"wire_ratio", "ratio", "lower", 0},
	{"recover_s", "s", "lower", 0},
	{"push_lag_ms.p50", "ms", "lower", 0},
	{"push_lag_ms.p90", "ms", "lower", 0},
	{"fanout_deliveries_per_s", "1/s", "higher", 0},

	// The end-to-end numbers before scaling to reference host speed, and
	// the reference kernel itself (hostref.go).
	{"host.setup_raw_s", "s", "lower", 0},
	{"host.op_raw_ms.p50", "ms", "lower", 0},
	{"host.ops_raw_per_s", "1/s", "higher", 0},
	{"host.ref_ms", "ms", "lower", 0},
	{"host.slowdown", "ratio", "lower", 0},
	{"host.stalled_ratio", "ratio", "lower", 0},

	{"matrix.mul256_f64_ms", "ms", "lower", 0},
	{"matrix.mul256_f32_ms", "ms", "lower", 0},

	{"nn.lstm_fit_ms", "ms", "lower", 0},
	{"nn.cnn_fit_ms", "ms", "lower", 0},
	{"nn.wavenet_fit_ms", "ms", "lower", 0},
	{"nn.dnn_fit_ms", "ms", "lower", 0},

	{"mlmodels.forest_fit_ms", "ms", "lower", 0},
	{"mlmodels.knn_predict_ms", "ms", "lower", 0},
	{"preprocess.scaler_fit_us", "us", "lower", 0},
	{"tswindow.cascaded_ms", "ms", "lower", 0},

	{"core.compute_s", "s", "lower", 0},
	{"core.darr_wait_s", "s", "lower", 0},
	{"core.queue_s", "s", "lower", 0},
	{"core.other_s", "s", "lower", 0},
	{"core.units", "count", "lower", 0},
	{"core.units_computed", "count", "lower", 0},
	{"core.units_cache_hit", "count", "higher", 0},
	{"core.units_skipped", "count", "lower", 0},
	{"core.prefix_fits", "count", "lower", 0},
	{"core.prefix_hit_ratio", "ratio", "higher", 0},
	{"core.allocs_per_unit", "count", "lower", 0},
	{"core.bytes_per_unit", "B", "lower", 0},
	{"core.warm_overhead_ms", "ms", "lower", 0},

	{"darr.lookup_batch_ms.p50", "ms", "lower", 0},
	{"darr.claim_batch_ms.p50", "ms", "lower", 0},
	{"darr.publish_batch_ms.p50", "ms", "lower", 0},
	{"darr.calls_per_search", "count", "lower", 0},
	{"darr.claim_grant_ratio", "ratio", "higher", 0},
	{"darr.claim_share_max", "ratio", "lower", 0},
	{"darr.redundancy", "ratio", "lower", 0},
	{"darr.repo_putbatch_us.p50", "us", "lower", 0},
	{"darr.repo_getbatch_us.p50", "us", "lower", 0},

	{"httpapi.darr_rtt_ms.p50", "ms", "lower", 0},
	{"httpapi.put_rtt_ms.p50", "ms", "lower", 0},
	{"httpapi.get_rtt_ms.p50", "ms", "lower", 0},
	{"httpapi.darr_handler_ms.p50", "ms", "lower", 0},
	{"httpapi.put_handler_ms.p50", "ms", "lower", 0},
	{"httpapi.get_handler_ms.p50", "ms", "lower", 0},
	{"httpapi.requests", "count", "lower", 0},
	{"httpapi.req_bytes", "B", "lower", 0},
	{"httpapi.resp_bytes", "B", "lower", 0},
	{"httpapi.retries", "count", "lower", 0},

	{"store.put_ms.p50", "ms", "lower", 0},
	{"store.get_delta_ms.p50", "ms", "lower", 0},
	{"store.get_full_ms.p50", "ms", "lower", 0},
	{"store.delta_reply_ratio", "ratio", "higher", 0},
	{"store.fallback_full", "count", "lower", 0},
	{"store.delta_cache_hit_ratio", "ratio", "higher", 0},

	{"delta.compute_ms.p50", "ms", "lower", 0},
	{"delta.apply_ms.p50", "ms", "lower", 0},
	{"delta.wire_bytes_per_edit", "B", "lower", 0},

	{"persist.putbatch_us.p50", "us", "lower", 0},
	{"persist.delete_us.p50", "us", "lower", 0},
	{"persist.compact_ms", "ms", "lower", 0},
	{"persist.open_ms", "ms", "lower", 0},
	{"persist.write_amp", "ratio", "lower", 0},
	{"persist.space_amp", "ratio", "lower", 0},
	{"persist.bolt_putbatch_us.p50", "us", "lower", 0},
	{"persist.bolt_open_ms", "ms", "lower", 0},

	{"replication.publish_ms.p50", "ms", "lower", 0},
	{"replication.fanout_complete_ms.p50", "ms", "lower", 0},
	{"replication.deliveries", "count", "higher", 0},
	{"replication.coalesced", "count", "lower", 0},
	{"replication.subscribe_us.p50", "us", "lower", 0},

	{"obs.trace_overhead_ratio", "ratio", "lower", 0},

	{"rt.peak_rss_mb", "MB", "lower", 0},
	{"rt.heap_alloc_mb", "MB", "lower", 0},
	{"rt.gc_pause_ms", "ms", "lower", 0},

	// Share of the workload's end-to-end timing that its layer chain
	// leaves unexplained (largest over the chains printed).
	{"chain.unexplained_ratio", "ratio", "lower", 0},
}
