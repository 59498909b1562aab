package main

// metricDef declares one benchmark metric. The names, units, directions
// and bounds here are the same ones BENCHMARK.json carries; the smoke test
// fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median the metric may worsen by
}

// endToEnd is reported, with tracing off, by every workload.
var endToEnd = []metricDef{
	{"ops_per_s", "op/s", "higher", 0.25},
	{"op_p99_us", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.16},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is reported by the traced pass. A metric whose layer the
// workload does not execute reads 0 there: the absence is the result.
var perLayer = []metricDef{
	{Name: "wire.decode_admit_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_depart_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_generic_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_reply_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.bytes_per_decision", Unit: "B", Better: "lower"},

	{Name: "gateway.admitbatch_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "gateway.departbatch_ns_per_flow", Unit: "ns", Better: "lower"},
	{Name: "gateway.updaterate_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.touch_ns", Unit: "ns", Better: "lower"},
	{Name: "gateway.tick_us_1k", Unit: "us", Better: "lower"},
	{Name: "gateway.tick_us_100k", Unit: "us", Better: "lower"},
	{Name: "gateway.tick_us_1m", Unit: "us", Better: "lower"},
	{Name: "gateway.tick_ttl_sweep_us_100k", Unit: "us", Better: "lower"},
	{Name: "gateway.admitbatch_p99_us_under_tick", Unit: "us", Better: "lower"},
	{Name: "gateway.reject_share", Unit: "ratio", Better: "lower"},

	{Name: "server.mean_batch", Unit: "count", Better: "higher"},
	{Name: "server.allocs_per_decision", Unit: "count", Better: "lower"},
	{Name: "server.bytes_read_per_frame", Unit: "B", Better: "lower"},
	{Name: "server.residual_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "server.residual_share", Unit: "ratio", Better: "lower"},

	{Name: "client.null_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.allocs_per_rpc", Unit: "count", Better: "lower"},
	{Name: "client.self_share", Unit: "ratio", Better: "lower"},

	{Name: "estimator.advance_update_ns", Unit: "ns", Better: "lower"},
	{Name: "core.admissible_ns", Unit: "ns", Better: "lower"},
	{Name: "adaptive.observe_tick_ns", Unit: "ns", Better: "lower"},

	{Name: "cluster.admitbatch_ns_per_decision", Unit: "ns", Better: "lower"},
	{Name: "cluster.depart_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.updaterate_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.tick_us", Unit: "us", Better: "lower"},
	{Name: "cluster.route_overhead_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "cluster.placement_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "cluster.pins_resident", Unit: "count", Better: "lower"},
	{Name: "cluster.pin_leaks", Unit: "count", Better: "lower"},

	{Name: "loadgen.schedule_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "loadgen.replay_ns_per_event", Unit: "ns", Better: "lower"},

	{Name: "sim.impulsive_us_per_rep", Unit: "us", Better: "lower"},
	{Name: "sim.engine_churn_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.engine_rcbr_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_cycle", Unit: "count", Better: "lower"},
	{Name: "scenario.run_ms", Unit: "ms", Better: "lower"},
	{Name: "qos.audit_us", Unit: "us", Better: "lower"},
	{Name: "traffic.rcbr_next_ns", Unit: "ns", Better: "lower"},
	{Name: "rng.normal_ns", Unit: "ns", Better: "lower"},

	{Name: "process.op_p50_us", Unit: "us", Better: "lower"},
	{Name: "process.cpu_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "process.tracing_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "harness.client_cpu_share", Unit: "ratio", Better: "lower"},
}

// metricSet is one run's values, keyed by metric name.
type metricSet map[string]float64

// zeroed returns a set holding every metric of defs at 0.
func zeroed(defs []metricDef) metricSet {
	m := make(metricSet, len(defs))
	for _, d := range defs {
		m[d.Name] = 0
	}
	return m
}
