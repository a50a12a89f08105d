package main

// metricDef is one metric of BENCHMARK.json; README.md maps each
// per-layer metric to its layer, the end-to-end metric it should move,
// and the workload that exercises it.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd is printed by every --trace 0 run. Each workload defines an
// operation (a request, a cold solve, a library call group) and a
// fixed unit of its seeded input that it processes cold and again
// warm; README.md gives the definitions per workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.25},
	{"rps", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"cold_s", "s", "lower", 0.25},
	{"warm_s", "s", "lower", 0.25},
}

// perLayer is printed by every --trace 1 run.
var perLayer = []metricDef{
	{"serve.handler_us", "us", "lower", 0},
	{"serve.transport_us", "us", "lower", 0},
	{"serve.cache.hit_ratio", "ratio", "higher", 0},
	{"serve.check.probe.lanes_per_word", "lanes/word", "higher", 0},
	{"serve.check.p50_ms", "ms", "lower", 0},
	{"serve.check.p99_ms", "ms", "lower", 0},
	{"serve.probe.p50_ms", "ms", "lower", 0},
	{"serve.probe.p99_ms", "ms", "lower", 0},
	{"serve.halver.p50_ms", "ms", "lower", 0},
	{"serve.halver.p99_ms", "ms", "lower", 0},
	{"serve.optimal.p50_ms", "ms", "lower", 0},
	{"serve.optimal.p99_ms", "ms", "lower", 0},
	{"serve.adversary.p50_ms", "ms", "lower", 0},
	{"serve.adversary.p99_ms", "ms", "lower", 0},
	{"network.parse_us", "us", "lower", 0},
	{"network.compile_us", "us", "lower", 0},
	{"network.evalbits_us", "us", "lower", 0},
	{"sortcheck.zeroone_us", "us", "lower", 0},
	{"halver.epsilon_us", "us", "lower", 0},
	{"delta.decompose_us", "us", "lower", 0},
	{"core.theorem41_us", "us", "lower", 0},
	{"core.certificate_verify_us", "us", "lower", 0},
	{"core.optimal_us", "us", "lower", 0},
	{"core.optimal.nodes_per_s", "1/s", "higher", 0},
	{"core.optimal.dominance_cuts", "count", "higher", 0},
	{"core.memo.hit_ratio", "ratio", "higher", 0},
	{"core.memo.evictions", "count", "lower", 0},
	{"sortkernels.int_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.uint64_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.float64_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.ordered_string_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.func_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.batch_int_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.batch_uint64_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.batch_float64_ns_per_elem", "ns", "lower", 0},
	{"sortkernels.batch_ordered_string_ns_per_elem", "ns", "lower", 0},
	{"sort_ns_per_elem", "ns", "lower", 0},
	{"batch_ns_per_elem", "ns", "lower", 0},
	{"control.slices_sort_ns_per_elem", "ns", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}
