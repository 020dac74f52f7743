package main

// metric is one reported figure: its name and unit as printed, which
// direction is better, and — for per-layer metrics — which end-to-end
// metric on which workload it is expected to move. BENCHMARK.json at the
// repository root mirrors these tables (the smoke test holds the two in
// step).
type metric struct {
	name, unit, better string
	moves              string
}

// endToEnd are the metrics a client of worldd sees, reported by an
// untraced run (--trace 0).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "sessions_per_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p99_ms", unit: "ms", better: "lower"},
	{name: "cpu_ms_per_session", unit: "ms", better: "lower"},
	{name: "setup_heap_mb", unit: "MB", better: "lower"},
}

// errorRate is printed with the end-to-end metrics but kept out of the
// result's metric map: it is 0 on a correct run, and the result already
// carries it as failed/attempted.
var errorRate = metric{name: "error_rate", unit: "ratio", better: "lower"}

// perLayer are the metrics of single layers, reported by a traced run
// (--trace 1).
var perLayer = []metric{
	{"transport.self_us", "us", "lower", "latency_p50_ms and sessions_per_s on exec-light; none on build-agents"},
	{"worldd.handler_p50_us", "us", "lower", "latency_p50_ms and sessions_per_s on exec-light; none on build-agents"},
	{"worldd.handler_p99_us", "us", "lower", "latency_p99_ms on exec-light"},
	{"worldd.self_us", "us", "lower", "latency_p50_ms and sessions_per_s on exec-light; none on build-agents"},
	{"worldd.create_pooled_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"worldd.create_boot_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"worldd.delete_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"worldd.shed", "count", "lower", "error_rate on every workload"},
	{"worldd.throttled", "count", "lower", "error_rate on every workload"},
	{"worldd.exec_errs", "count", "lower", "error_rate on every workload"},
	{"worldd.status_5xx", "count", "lower", "error_rate on every workload"},
	{"world.exec_p50_us", "us", "lower", "latency_p50_ms on exec-light and build-agents"},
	{"world.exec_p99_us", "us", "lower", "latency_p99_ms on exec-light and build-agents"},
	{"world.boot_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"world.fork_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"world.pool_acquire_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"world.close_us", "us", "lower", "sessions_per_s on tenant-churn"},
	{"world.pool.hit_ratio", "ratio", "higher", "sessions_per_s on tenant-churn"},
	{"kernel.syscalls_per_session", "count", "lower", "latency_p50_ms and cpu_ms_per_session on build-agents"},
	{"kernel.syscall_errs_per_session", "count", "lower", "latency_p50_ms and cpu_ms_per_session on build-agents"},
	{"kernel.exec_image_hit_ratio", "ratio", "higher", "latency_p50_ms on build-agents and exec-light"},
	{"vfs.dentry_hit_ratio", "ratio", "higher", "latency_p50_ms and cpu_ms_per_session on build-agents"},
	{"vfs.attr_hit_ratio", "ratio", "higher", "latency_p50_ms and cpu_ms_per_session on build-agents"},
	{"agents.timex.overhead_us", "us", "lower", "latency_p50_ms on build-agents; none on exec-light"},
	{"agents.trace.overhead_us", "us", "lower", "latency_p50_ms on build-agents; none on exec-light"},
	{"agents.union.overhead_us", "us", "lower", "latency_p50_ms on build-agents; none on exec-light"},
	{"journal.records_per_session", "count", "lower", "sessions_per_s on tenant-churn; none on exec-light"},
	{"journal.flushes_per_session", "count", "lower", "sessions_per_s on tenant-churn; none on exec-light"},
	{"process.alloc_kb_per_session", "KB", "lower", "latency_p99_ms on every workload"},
	{"process.gc_cycles", "count", "lower", "latency_p99_ms on every workload"},
	{"loadgen.lag_p99_ms", "ms", "lower", "none: the client's own time between a reply and the next request"},
	{"trace.overhead_pct", "%", "lower", "none: traced minus untraced cpu_ms_per_session"},
}
