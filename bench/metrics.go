package main

// metricDef is one row of BENCHMARK.json's metric lists.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what someone regenerating a figure waits for and pays:
// host time and host memory. Each bound is the share of the parent's
// median by which a later change may worsen the metric. Failed ops are
// not a metric (a metric may never read 0): they are the "failed" and
// "attempted" counts of every result.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.20},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists every layer metric, in the repository's module names.
// Every workload reports all of them and reads 0 where a layer takes no
// part. Counts that must repeat exactly for one seed are in exactCounts.
var perLayer = []metricDef{
	{Name: "sim.events", Unit: "count", Better: "lower"},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sim.kernel_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "p2p.msgs", Unit: "count", Better: "lower"},
	{Name: "p2p.bytes", Unit: "count", Better: "lower"},
	{Name: "p2p.dropped", Unit: "count", Better: "lower"},
	{Name: "p2p.ns_per_msg", Unit: "ns", Better: "lower"},
	{Name: "p2p.add_node_ns", Unit: "ns", Better: "lower"},
	{Name: "p2p.connect_disconnect_ns", Unit: "ns", Better: "lower"},
	{Name: "p2p.node_bytes", Unit: "count", Better: "lower"},

	{Name: "latency.sample_ns", Unit: "ns", Better: "lower"},
	{Name: "geo.place_ns", Unit: "ns", Better: "lower"},

	{Name: "topology.recommend_us", Unit: "us", Better: "lower"},
	{Name: "topology.all_us", Unit: "us", Better: "lower"},
	{Name: "topology.bootstrap_s", Unit: "s", Better: "lower"},

	{Name: "core.rank_s", Unit: "s", Better: "lower"},
	{Name: "core.join_run_s", Unit: "s", Better: "lower"},
	{Name: "core.join_events", Unit: "count", Better: "lower"},
	{Name: "core.probes", Unit: "count", Better: "lower"},
	{Name: "core.ping_msgs", Unit: "count", Better: "lower"},
	{Name: "core.clusters", Unit: "count", Better: "lower"},
	{Name: "core.join_accept_frac", Unit: "ratio", Better: "higher"},
	{Name: "core.clustered_frac", Unit: "ratio", Better: "higher"},

	{Name: "churn.leaves", Unit: "count", Better: "higher"},
	{Name: "churn.arrivals", Unit: "count", Better: "higher"},

	{Name: "measure.inject_p50_us", Unit: "us", Better: "lower"},
	{Name: "measure.inject_p90_us", Unit: "us", Better: "lower"},
	{Name: "measure.samples", Unit: "count", Better: "higher"},
	{Name: "measure.lost", Unit: "count", Better: "lower"},
	{Name: "measure.dt_p50_ms.bitcoin", Unit: "ms", Better: "lower"},
	{Name: "measure.dt_p90_ms.bitcoin", Unit: "ms", Better: "lower"},
	{Name: "measure.dt_p50_ms.lbc", Unit: "ms", Better: "lower"},
	{Name: "measure.dt_p90_ms.lbc", Unit: "ms", Better: "lower"},
	{Name: "measure.dt_p50_ms.bcbpt", Unit: "ms", Better: "lower"},
	{Name: "measure.dt_p90_ms.bcbpt", Unit: "ms", Better: "lower"},
	{Name: "measure.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.csv_ms", Unit: "ms", Better: "lower"},
	{Name: "measure.shard_kb", Unit: "KB", Better: "lower"},

	{Name: "experiment.build_s.bitcoin", Unit: "s", Better: "lower"},
	{Name: "experiment.build_s.lbc", Unit: "s", Better: "lower"},
	{Name: "experiment.build_s.bcbpt", Unit: "s", Better: "lower"},
	{Name: "experiment.run_s.bitcoin", Unit: "s", Better: "lower"},
	{Name: "experiment.run_s.lbc", Unit: "s", Better: "lower"},
	{Name: "experiment.run_s.bcbpt", Unit: "s", Better: "lower"},
	{Name: "experiment.parallel_eff", Unit: "ratio", Better: "higher"},

	{Name: "fleet.lease_us", Unit: "us", Better: "lower"},
	{Name: "fleet.commit_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.outcomes_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.commits", Unit: "count", Better: "higher"},
	{Name: "fleet.rejected", Unit: "count", Better: "lower"},

	{Name: "obs.trace_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "obs.events_recorded", Unit: "count", Better: "higher"},
	{Name: "obs.dropped", Unit: "count", Better: "lower"},

	{Name: "bench.passes", Unit: "count", Better: "higher"},
	{Name: "bench.noise_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.wall_median_s", Unit: "s", Better: "lower"},
	{Name: "bench.cpu_s", Unit: "s", Better: "lower"},
	{Name: "bench.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "bench.span_overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.decomp_gap_frac", Unit: "ratio", Better: "lower"},
	{Name: "bench.total_s", Unit: "s", Better: "lower"},
}

// exactCounts are the simulator's own counts: one seed gives the same
// value in every pass and every run, and a change that only makes the
// simulator faster leaves them as they were. -compare lists any that
// differ.
var exactCounts = map[string]bool{
	"sim.events": true, "p2p.msgs": true, "p2p.bytes": true, "p2p.dropped": true,
	"core.join_events": true, "core.probes": true, "core.ping_msgs": true,
	"core.clusters": true, "core.join_accept_frac": true, "core.clustered_frac": true,
	"churn.leaves": true, "churn.arrivals": true,
	"measure.samples": true, "measure.lost": true, "measure.shard_kb": true,
	"measure.dt_p50_ms.bitcoin": true, "measure.dt_p90_ms.bitcoin": true,
	"measure.dt_p50_ms.lbc": true, "measure.dt_p90_ms.lbc": true,
	"measure.dt_p50_ms.bcbpt": true, "measure.dt_p90_ms.bcbpt": true,
	"fleet.commits": true, "fleet.rejected": true,
	"obs.events_recorded": true, "obs.dropped": true,
}
