package main

// The catalogue is the one declaration of what the benchmark runs and
// reports. BENCHMARK.json at the repository root repeats it for the driver;
// TestCatalogueMatchesBenchmarkJSON keeps the two from drifting.

type workloadInfo struct {
	Name string
	Why  string
}

var workloadCatalogue = []workloadInfo{
	{"live", "commprof.Profile over splash-mix: the paper's on-the-fly mode and headline slowdown; exec+splash and detect+sig do the work, no codec, no queues"},
	{"record", "commprof.Record (v3) over splash-mix into a pre-sized buffer: the trace layer's write side plus exec a second way, so an encoder/decoder trade shows as one row up, one down"},
	{"replay", "commprof.Replay (serial) of the set-up v3 traces: decode+detect+sig only; an exec change must show no change here, a signature change must show here and on live"},
	{"replay-full", "Replay with 2 shards, redundancy cache, accuracy monitor, phase windows and timeline telemetry: every optional layer at once; feature overhead is replay-full minus replay"},
	{"synth-local", "ProfileTrace with a 2^14 redundancy cache over 2^22 accesses on a 2k-granule working set: the cache absorbs ~97%, so a signature change must show no change, a cache or detector-loop change shows first"},
	{"synth-spread", "same call over 2^20 accesses drawn from ~2x the signature's slots: ~0% cache hits, lazy bloom allocation and slot collisions dominate; the accuracy stress row"},
	{"go-probe", "the bench binary re-exec'd as a hand-instrumented target: 4 goroutines hand off 64 sweeps through probe.G().R/W, then Shutdown sorts and v3-encodes; the only workload that runs commprof/probe"},
}

type metricInfo struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd lists what a user of the profiler sees, per workload. Every
// workload reports every one of them and none is ever 0, which is why
// comm_error_pct is reported as comm_accuracy_pct = 100 - error and why
// failed ops are the result line's failed/attempted pair, not a metric.
//
// The bounds on the counts are at least three times the widest quartile
// spread seen over ten seeds. Those on the times and the peak RSS are the
// contract's ceiling of 0.25: normalised by the yardstick the times spread
// 2-6 %, but this host's slow episodes leave a residual and two rows have
// regimes the yardstick does not see (README, "The noise floor").
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_access_p50", "ns/access", "lower", 0.25},
	{"ns_per_access_tail", "ns/access", "lower", 0.25},
	{"accesses_per_s", "1/s", "higher", 0.25},
	{"peak_rss_bytes", "bytes", "lower", 0.25},
	{"alloc_bytes_per_access", "bytes/access", "lower", 0.03},
	{"signature_bytes", "bytes", "lower", 0.01},
	{"comm_accuracy_pct", "%", "higher", 0.015},
	{"trace_bytes_per_access", "bytes/access", "lower", 0.01},
}

// perLayer lists the staged-pass metrics. A layer the workload's op never
// calls reports 0 on that workload.
var perLayer = []metricInfo{
	{Name: "exec.ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "exec.alloc_bytes_per_access", Unit: "bytes/access", Better: "lower"},
	{Name: "exec.barrier_epochs", Unit: "count", Better: "lower"},

	{Name: "trace.encode_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "trace.decode_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "trace.decode_allocs_per_kaccess", Unit: "1/kaccess", Better: "lower"},
	{Name: "trace.bytes_per_access", Unit: "bytes/access", Better: "lower"},

	{Name: "redundancy.ns_per_lookup", Unit: "ns/lookup", Better: "lower"},
	{Name: "redundancy.hit_rate", Unit: "share", Better: "higher"},
	{Name: "redundancy.evictions_per_kaccess", Unit: "1/kaccess", Better: "lower"},

	{Name: "sig.ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "sig.ns_per_read", Unit: "ns/read", Better: "lower"},
	{Name: "sig.ns_per_write", Unit: "ns/write", Better: "lower"},
	{Name: "sig.filters_allocated", Unit: "count", Better: "lower"},
	{Name: "sig.fill_ratio", Unit: "share", Better: "lower"},
	{Name: "sig.setup_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "sig.footprint_bytes", Unit: "bytes", Better: "lower"},
	{Name: "sig.exact_ns_per_access", Unit: "ns/access", Better: "lower"},

	{Name: "detect.ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "detect.self_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "detect.events_per_kaccess", Unit: "1/kaccess", Better: "lower"},
	{Name: "detect.allocs_per_kaccess", Unit: "1/kaccess", Better: "lower"},

	{Name: "accuracy.ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "accuracy.sampled_share", Unit: "share", Better: "lower"},
	{Name: "accuracy.shadow_bytes", Unit: "bytes", Better: "lower"},
	{Name: "accuracy.estimated_fpr", Unit: "share", Better: "lower"},

	{Name: "pipeline.ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "pipeline.produce_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "pipeline.close_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "pipeline.shards1_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "pipeline.peak_resident_accesses", Unit: "count", Better: "lower"},
	{Name: "pipeline.producer_flushes", Unit: "count", Better: "lower"},
	{Name: "pipeline.shard_skew", Unit: "ratio", Better: "lower"},
	{Name: "pipeline.dropped_accesses", Unit: "count", Better: "lower"},

	{Name: "comm.tree_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "comm.window_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "comm.windows_closed", Unit: "count", Better: "lower"},

	{Name: "metrics.timeline_ns_per_op", Unit: "ns/op", Better: "lower"},

	{Name: "obs.telemetry_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "obs.timeline_events", Unit: "count", Better: "lower"},
	{Name: "obs.attributed_share", Unit: "share", Better: "higher"},

	{Name: "probe.ns_per_probe", Unit: "ns/probe", Better: "lower"},
	{Name: "probe.shutdown_ns_per_probe", Unit: "ns/probe", Better: "lower"},
	{Name: "probe.rss_bytes_per_probe", Unit: "bytes/probe", Better: "lower"},

	{Name: "commprof.self_ns_per_access", Unit: "ns/access", Better: "lower"},
	{Name: "commprof.layer_coverage", Unit: "ratio", Better: "higher"},
	{Name: "commprof.summary_ns_per_op", Unit: "ns/op", Better: "lower"},
	{Name: "commprof.gc_cycles_per_op", Unit: "1/op", Better: "lower"},
	{Name: "commprof.host_slowdown", Unit: "ratio", Better: "lower"},

	{Name: "comm_error_pct", Unit: "%", Better: "lower"},
}
