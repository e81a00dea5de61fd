package main

import (
	"strconv"

	"zen2ee/internal/core"
)

// metricDef is one catalogue entry: BENCHMARK.json lists the same names,
// units and directions (a self-test keeps the two in step), and README.md
// explains each.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"shards_per_s", "1/s", "higher"},
	{"jobs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_tail_ms", "ms", "lower"},
	{"paper_ok_ratio", "ratio", "higher"},
	{"paper_dev_median_pct", "%", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// machineCores are the active-core counts of the machine probe: one core,
// a quarter of the system, and every core (both packages under EDC).
var machineCores = []int{1, 16, 64}

// perLayer are the metrics every traced run reports.
func perLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, e := range core.Registry() {
		add("core.exp."+e.ID+".ms", "ms", "lower")
	}
	add("core.critical_path_ms", "ms", "lower")
	add("core.shards", "count", "lower")
	add("core.shard_run_ms.p50", "ms", "lower")
	add("core.shard_run_ms.max", "ms", "lower")
	add("core.shard_wait_ms.p50", "ms", "lower")
	add("core.pool_busy_ratio", "ratio", "higher")
	add("core.reduce_ms.sum", "ms", "lower")

	add("report.marshal_ms", "ms", "lower")
	add("report.sweep_write_ms", "ms", "lower")

	for _, n := range machineCores {
		add(coresName("machine.steady_us_per_sim_ms", n), "us/sim_ms", "lower")
	}
	for _, n := range machineCores {
		add(coresName("machine.churn_us_per_op", n), "us/op", "lower")
	}
	for _, n := range machineCores {
		add(coresName("sim.events_per_sim_ms", n), "events/sim_ms", "lower")
	}
	add("machine.new_us", "us", "lower")
	add("smu.throttled_ticks.64", "count", "lower")
	add("power.core_watts_ns", "ns", "lower")
	add("power.package_dyn_watts_ns", "ns", "lower")
	add("rapl.package_energy_read_ns", "ns", "lower")

	add("dist.dispatch_ms.p50", "ms", "lower")
	add("dist.exec_ms.p50", "ms", "lower")
	add("dist.overhead_ms.p50", "ms", "lower")
	add("dist.http_requests_per_shard", "requests/shard", "lower")
	add("dist.http_bytes_per_shard", "bytes/shard", "lower")
	add("dist.lease_rtt_ms.p50", "ms", "lower")
	add("dist.remote_ratio", "ratio", "higher")
	add("dist.retries", "count", "lower")
	add("dist.register_ms", "ms", "lower")

	add("service.submit_ms.p50", "ms", "lower")
	add("service.events_ms.p50", "ms", "lower")
	add("service.result_ms.p50", "ms", "lower")
	add("service.queue_ms.p50", "ms", "lower")
	add("service.run_ms.p50", "ms", "lower")
	add("service.marshal_ms.p50", "ms", "lower")
	add("service.cache_hit_ratio", "ratio", "higher")
	add("service.dedup", "count", "higher")
	for _, c := range requestClasses {
		add(c+"_p50_ms", "ms", "lower")
	}

	add("shardcache.hit_ratio", "ratio", "higher")
	add("shardcache.bytes", "bytes", "lower")

	add("store.get_us.p50", "us", "lower")
	add("store.put_us.p50", "us", "lower")
	add("store.has_us.p50", "us", "lower")
	add("store.disk_hit_ratio", "ratio", "higher")
	add("store.disk_evictions", "count", "lower")

	add("tenant.admitted", "count", "higher")
	add("tenant.rejections", "count", "lower")
	add("tenant.shard_wait_ms.p50", "ms", "lower")

	add("obs.trace_overhead_ratio", "ratio", "lower")
	return defs
}

func coresName(prefix string, n int) string { return prefix + "." + strconv.Itoa(n) }
