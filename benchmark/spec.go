package main

// The metric tables are the benchmark's vocabulary: BENCHMARK.json at the
// repository root repeats the names, units and directions (a test keeps the
// two in step), and every run prints exactly these names. The layer and
// moves columns cannot live in BENCHMARK.json, whose schema is fixed by the
// driver, so they live here and in README.md.

// endToEndSpec is one metric a user of the service would see.
type endToEndSpec struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression.
	Bound   float64
	Meaning string
}

var endToEnd = []endToEndSpec{
	{"setup_s", "s", "lower", 0.25, "seeded request pool + server start + warm-up, before the first measured request; median of three set-ups"},
	{"throughput_rps", "1/s", "higher", 0.25, "correct answers per second (closed loop: capacity at C clients; open loop: completion rate); median over cycle windows"},
	{"latency_p50_ms", "ms", "lower", 0.25, "median client-observed latency; from send in a closed loop, from the scheduled arrival in an open loop"},
	{"latency_p99_ms", "ms", "lower", 0.25, "99th percentile, nearest rank; median over the run's latency windows"},
	{"slo_attained_share", "share", "higher", 0.02, "requests answered correctly within the workload's latency limit, of all sent; failed, refused or wrong answers miss; median over the run's latency windows"},
	{"plan_cost_ratio_geomean", "ratio", "lower", 0.02, "geomean of served plan cost / reference cost (the paper's rho)"},
	{"cpu_ms_per_request", "ms", "lower", 0.25, "process user+sys CPU (getrusage) / requests; median over cycle windows"},
	{"allocs_per_request", "count", "lower", 0.05, "heap objects allocated (/gc/heap/allocs:objects) / requests; median over cycle windows"},
	{"alloc_kb_per_request", "KiB", "lower", 0.05, "heap bytes allocated (/gc/heap/allocs:bytes) / requests; median over cycle windows"},
}

// layerSpec is one metric of a single layer. Moves names the end-to-end
// metrics and the workload the layer metric is predicted to move, written
// down before any measurement (see README.md, "How the metrics interact").
type layerSpec struct {
	Name, Unit, Better string
	Layer              string
	Moves              string
}

const (
	movesEngine = "throughput_rps, latency_p50_ms, cpu_ms_per_request, allocs_per_request, alloc_kb_per_request on cold-enum; no change on warm-hit"
	movesServe  = "latency_p50_ms, throughput_rps, allocs_per_request on warm-hit; no change on cold-enum (< 1% of a request)"
	movesChurn  = "latency_p99_ms, throughput_rps on cache-churn; no change on warm-hit (no fills) or cold-enum (no cache)"
	movesRoute  = "latency_p99_ms, slo_attained_share, plan_cost_ratio_geomean, cpu_ms_per_request on routed-slo; no change on the explicit-technique workloads"
	movesGuard  = "none: a validity or failure counter, expected to stay where it is"
	movesNone   = "none today: no workload sets workers; the number decides whether internal/pardp earns its lines"
)

var perLayer = []layerSpec{
	{"server.handler_us", "us", "lower", "server", movesServe},
	{"server.codec_us", "us", "lower", "server", movesServe},
	{"server.unattributed_us", "us", "lower", "server", movesServe},
	{"server.reported_ms_p50", "ms", "lower", "server", movesServe},
	{"server.shed_share", "share", "lower", "server", movesGuard},
	{"server.timeout_share", "share", "lower", "server", movesGuard},
	{"server.error5xx_share", "share", "lower", "server", movesGuard},
	{"server.wrong_answer_share", "share", "lower", "server", movesGuard},
	{"http.transport_us", "us", "lower", "http", movesServe},
	{"parse.sql_us", "us", "lower", "parse", movesServe},
	{"query.build_us", "us", "lower", "query", movesServe},
	{"query.shape_us", "us", "lower", "query", movesServe},
	{"query.canon_us", "us", "lower", "query", movesServe},
	{"query.fingerprint_us", "us", "lower", "query", movesServe},
	{"query.canon_truncated_share", "share", "lower", "query", movesChurn},
	{"plancache.lookup_us", "us", "lower", "plancache", movesServe},
	{"plancache.fill_us", "us", "lower", "plancache", movesChurn},
	{"plancache.hit_share", "share", "higher", "plancache", movesChurn},
	{"plancache.dedup_share", "share", "higher", "plancache", movesChurn},
	{"plancache.evictions_per_1k", "count", "lower", "plancache", movesChurn},
	{"plancache.entries", "count", "lower", "plancache", movesChurn},
	{"route.decide_us", "us", "lower", "route", movesRoute},
	{"route.share_greedy", "share", "higher", "route", movesRoute},
	{"route.share_idp2", "share", "higher", "route", movesRoute},
	{"route.share_sdp", "share", "higher", "route", movesRoute},
	{"route.demoted_share", "share", "lower", "route", movesRoute},
	{"route.regret_promoted_share", "share", "lower", "route", movesRoute},
	{"dp.optimize_ms", "ms", "lower", "dp", movesEngine},
	{"dp.ns_per_plan_costed", "ns", "lower", "dp", movesEngine},
	{"dp.allocs_per_plan_costed", "count", "lower", "dp", movesEngine},
	{"dp.plans_costed_per_request", "count", "lower", "dp", movesEngine},
	{"dp.paths_retained_per_plan_costed", "ratio", "lower", "dp", movesEngine},
	{"dp.pairs_connected_per_considered", "ratio", "higher", "dp", movesEngine},
	{"dp.peak_sim_mb_max", "MiB", "lower", "dp", movesEngine},
	{"core.optimize_ms", "ms", "lower", "core", movesEngine + "; on small queries also " + movesChurn},
	{"core.ns_per_plan_costed", "ns", "lower", "core", movesEngine},
	{"core.allocs_per_plan_costed", "count", "lower", "core", movesEngine},
	{"core.plans_costed_per_request", "count", "lower", "core", movesEngine},
	{"core.paths_retained_per_plan_costed", "ratio", "lower", "core", movesEngine},
	{"core.classes_alive_per_created", "ratio", "lower", "core", movesEngine},
	{"idp.optimize_ms", "ms", "lower", "idp", movesRoute},
	{"idp.ns_per_plan_costed", "ns", "lower", "idp", movesRoute},
	{"idp.plans_costed_per_request", "count", "lower", "idp", movesRoute},
	{"greedy.optimize_us", "us", "lower", "greedy", movesRoute},
	{"greedy.plans_costed_per_request", "count", "lower", "greedy", movesRoute},
	{"pardp.speedup_workers2", "ratio", "higher", "pardp", movesNone},
	{"plan.remap_us", "us", "lower", "plan", movesServe},
	{"plan.render_us", "us", "lower", "plan", movesServe},
	{"obs.overhead_ratio", "ratio", "lower", "obs", movesServe},
	{"regret.sampled", "count", "higher", "regret", movesRoute},
	{"regret.completed", "count", "higher", "regret", movesRoute},
	{"regret.dropped", "count", "lower", "regret", movesRoute},
	{"runtime.gc_cpu_share", "share", "lower", "runtime", movesEngine},
	{"runtime.gc_cycles", "count", "lower", "runtime", movesEngine},
	{"runtime.heap_peak_mb", "MiB", "lower", "runtime", movesEngine},
	{"bench.generator_lag_p99_ms", "ms", "lower", "bench", movesGuard},
	{"bench.trace_closure_ratio", "ratio", "higher", "bench", movesGuard},
	{"bench.trace_overhead_ratio", "ratio", "lower", "bench", movesGuard},
	{"bench.requests_measured", "count", "higher", "bench", movesGuard},
}
