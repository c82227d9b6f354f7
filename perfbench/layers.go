package main

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit string
	// always marks metrics every workload reports; the others read 0 on
	// workloads that do not exercise their layer.
	always bool
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. README.md
// names the end-to-end metric and workload each should move.
var perLayer = []layerDef{
	// campaign-local
	{name: "backend.sim.invoke_ns", unit: "ns"},
	{name: "backend.chaos.self_ns", unit: "ns"},
	{name: "backend.chaos.faults_per_krun", unit: "count"},
	{name: "resilience.retry.attempts_per_run", unit: "count"},
	{name: "resilience.retry.self_ns", unit: "ns"},
	{name: "stopping.add_ns", unit: "ns"},
	{name: "stopping.evals_per_campaign", unit: "count"},
	{name: "record.write_ns", unit: "ns"},
	{name: "record.bytes_per_row", unit: "B"},
	{name: "core.merge_self_ns", unit: "ns"},
	{name: "core.invokes_per_run", unit: "count"},
	{name: "core.allocs_per_run", unit: "count"},
	{name: "core.bytes_per_run", unit: "B"},
	// campaign-local and analyze-history: the union of the named layer
	// spans, and on campaign-local the launcher's own time beside them, as
	// shares of op wall time
	{name: "trace.accounted_pct", unit: "%"},
	{name: "trace.merge_self_pct", unit: "%"},
	// campaign-service
	{name: "service.lease.rtt_us", unit: "us"},
	{name: "service.lease.empty_ratio", unit: "ratio"},
	{name: "service.lease.idle_ms_per_op", unit: "ms"},
	{name: "service.lease.runs_per_lease", unit: "count"},
	{name: "service.complete.rtt_us", unit: "us"},
	{name: "service.complete.calls_per_run", unit: "count"},
	{name: "service.heartbeat.calls_per_lease", unit: "count"},
	{name: "service.http.handler_us.submit", unit: "us"},
	{name: "service.http.handler_us.lease", unit: "us"},
	{name: "service.http.handler_us.heartbeat", unit: "us"},
	{name: "service.http.handler_us.complete", unit: "us"},
	{name: "service.http.bytes_per_run", unit: "B"},
	{name: "service.queue_wait_ms", unit: "ms"},
	{name: "service.worker.compute_us_per_run", unit: "us"},
	// analyze-history
	{name: "record.read_ns_per_row", unit: "ns"},
	{name: "record.read_allocs_per_row", unit: "count"},
	{name: "classify.ms_per_cell", unit: "ms"},
	{name: "similarity.us_per_pair", unit: "us"},
	{name: "changepoint.scalar_ms", unit: "ms"},
	{name: "changepoint.dist_ms", unit: "ms"},
	{name: "changepoint.tests_per_query", unit: "count"},
	// sweep-budget
	{name: "budget.allocations_per_sweep", unit: "count"},
	{name: "budget.runs_spent_per_sweep", unit: "count"},
	{name: "budget.batch_ms", unit: "ms"},
	{name: "cache.hit_ratio", unit: "ratio"},
	{name: "cache.replay_ms_per_hit", unit: "ms"},
	// every workload: tracing overhead between the untraced and the traced
	// half of the run
	{name: "trace.overhead.runs_per_s_pct", unit: "%", always: true},
	{name: "trace.overhead.op_p50_pct", unit: "%", always: true},
}

func init() {
	for _, e := range ledgerEntries {
		perLayer = append(perLayer,
			layerDef{name: "ledger." + e + ".ns_per_call", unit: "ns", always: true},
			layerDef{name: "ledger." + e + ".b_per_call", unit: "B", always: true},
			layerDef{name: "ledger." + e + ".allocs_per_call", unit: "count", always: true})
	}
}
