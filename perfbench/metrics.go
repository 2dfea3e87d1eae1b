package main

// metricDef is one reported metric. For a per-layer metric, moves names
// the end-to-end metric and workload it is expected to move, written down
// before any optimisation is measured with it.
type metricDef struct {
	name, unit, moves string
}

// endToEnd are the metrics of an untraced run (-trace 0).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "job_ms_p50", unit: "ms"},
	{name: "job_ms_tail", unit: "ms"},
	{name: "cells_per_s", unit: "1/s"},
	{name: "tasks_per_s", unit: "1/s"},
	{name: "sim_speedup_damc_rws", unit: "ratio"},
	{name: "peak_rss_mb", unit: "MB"},
	{name: "ok_ratio", unit: "ratio"},
}

// perLayer are the metrics of a traced run (-trace 1).
var perLayer = []metricDef{
	{"service.submit_ms", "ms", "job_ms_p50 on warm-overlap"},
	{"service.plan_ms", "ms", "job_ms_p50 on warm-overlap"},
	{"service.merge_ms", "ms", "job_ms_p50 on warm-overlap"},
	{"service.cell_hit_ratio", "ratio", "job_ms_p50 on warm-overlap"},
	{"service.dispatch_ms", "ms", "job_ms_p50 on cold-sweep"},
	{"service.queued_ms", "ms", "job_ms_p50 on cold-sweep"},
	{"service.unspanned_ms", "ms", "job_ms_p50 on cold-sweep"},
	{"service.result_ms", "ms", "job_ms_p50 on cold-sweep and warm-overlap"},
	{"service.result_bytes", "B", "job_ms_p50 on cold-sweep and warm-overlap"},
	{"service.shard_retries", "count", "ok_ratio on all workloads (must stay 0)"},
	{"service.peer_failures", "count", "ok_ratio on all workloads (must stay 0)"},
	{"service.local_cells", "count", "cells_per_s on cold-sweep and many-small-cells"},
	{"service.remote_cells", "count", "cells_per_s on cold-sweep and many-small-cells"},
	{"wire.shard_ms", "ms", "job_ms_p50 on cold-sweep; flat on warm-overlap"},
	{"wire.overhead_ms", "ms", "job_ms_p50 on cold-sweep; flat on warm-overlap"},
	{"wire.worker_serve_ms", "ms", "job_ms_p50 on cold-sweep; flat on warm-overlap"},
	{"wire.bytes_per_cell", "B", "job_ms_p50 on cold-sweep; flat on warm-overlap"},
	{"pool.simulate_ms_per_cell", "ms", "cells_per_s on cold-sweep and many-small-cells"},
	{"pool.busy_frac", "ratio", "cells_per_s on cold-sweep and many-small-cells"},
	{"scenario.validate_ms", "ms", "job_ms_p50 on many-small-cells and warm-overlap"},
	{"scenario.hash_ms", "ms", "job_ms_p50 on many-small-cells and warm-overlap"},
	{"scenario.newplan_ms", "ms", "job_ms_p50 on many-small-cells and warm-overlap"},
	{"scenario.merge_ms", "ms", "job_ms_p50 on many-small-cells and warm-overlap"},
	{"scenario.fingerprint_ms", "ms", "job_ms_p50 on cold-sweep and warm-overlap"},
	{"scenario.fingerprint_bytes", "B", "job_ms_p50 on cold-sweep and warm-overlap"},
	{"scenario.runcell_ms", "ms", "cells_per_s on many-small-cells"},
	{"scenario.runcell_first_ms", "ms", "cells_per_s on many-small-cells"},
	{"dagio.generate_ms", "ms", "cells_per_s on many-small-cells"},
	{"dag.reset_us", "us", "cells_per_s on many-small-cells"},
	{"simrt.events", "count", "tasks_per_s on cold-sweep; flat on warm-overlap"},
	{"simrt.ns_per_event", "ns", "tasks_per_s on cold-sweep; flat on warm-overlap"},
	{"simrt.steal_success_ratio", "ratio", "tasks_per_s on cold-sweep; flat on warm-overlap"},
	{"xtr.ns_per_task.RWS", "ns", "tasks_per_s on xtr-real"},
	{"xtr.ns_per_task.DAM-C", "ns", "tasks_per_s on xtr-real"},
	{"xtr.ns_per_task.DAM-P", "ns", "tasks_per_s on xtr-real"},
	{"xtr.steals.RWS", "count", "tasks_per_s on xtr-real"},
	{"xtr.steals.DAM-C", "count", "tasks_per_s on xtr-real"},
	{"xtr.steals.DAM-P", "count", "tasks_per_s on xtr-real"},
	{"xtr.dispatches.RWS", "count", "tasks_per_s on xtr-real"},
	{"xtr.dispatches.DAM-C", "count", "tasks_per_s on xtr-real"},
	{"xtr.dispatches.DAM-P", "count", "tasks_per_s on xtr-real"},
	{"xtr.busy_frac.RWS", "ratio", "tasks_per_s on xtr-real"},
	{"xtr.busy_frac.DAM-C", "ratio", "tasks_per_s on xtr-real"},
	{"xtr.busy_frac.DAM-P", "ratio", "tasks_per_s on xtr-real"},
	{"go.alloc_mb_per_op", "MB", "tasks_per_s on cold-sweep; peak_rss_mb on all workloads"},
	{"go.gc_cpu_frac", "ratio", "tasks_per_s on cold-sweep; peak_rss_mb on all workloads"},
	{"go.gc_cycles_per_op", "count", "tasks_per_s on cold-sweep; peak_rss_mb on all workloads"},
	{"self.bench_ms", "ms", "job_ms_p50 on all workloads"},
	{"self.service_ms", "ms", "job_ms_p50 on warm-overlap and cold-sweep"},
	{"self.wire_ms", "ms", "job_ms_p50 on cold-sweep"},
	{"self.pool_ms", "ms", "job_ms_p50 on cold-sweep and many-small-cells"},
	{"self.xtr_ms", "ms", "job_ms_p50 on xtr-real"},
	{"self.uncovered_ms", "ms", "job_ms_p50 on all workloads"},
	{"bench.traced_job_ms_p50", "ms", "none: the self times above add up to it"},
	{"bench.trace_overhead_ratio", "ratio", "none: it bounds what the traced run costs"},
}
