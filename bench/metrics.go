package main

// The tables in this file are the benchmark's contract: BENCHMARK.json at
// the repository root lists the same names, units and bounds, and
// TestBenchmarkJSONMatchesTables keeps the two from drifting.

// runSeconds is the timed window of one run, BENCHMARK.json's run_seconds.
const runSeconds = 15

// minReps is the fewest timed repetitions a run reports a median over.
const minReps = 3

// setupPasses is how many times a run repeats its whole set-up; setup_s is
// the median. One pass is sub-second, so a single sample would be noise.
const setupPasses = 5

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics, reported per workload as medians over the
// timed repetitions. failed_share is gated too (absolute bound 0) but is
// carried by the attempted/failed counts of the result line, because a
// metric that is 0 on every healthy run has no relative spread.
//
// The two timing bounds are the widest the contract allows, wider than the
// issue's 0.10 and 0.15: on the reference box identical work drifts between
// a fast and a slow regime about 20% apart for minutes at a time (see
// README, "Baseline"), and ten-run quartile spreads of 3-24% were measured.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "census_wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_rep", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_rep", Unit: "MB", Better: "lower", Bound: 0.15},
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"seq2-nova", "seq2 on nova, serial: ~91k crash states, so mount+check per state dominate; per-state and pruning work must show here"},
	{"seq2dax-ext4", "seq2dax on ext4-dax: 6208 runs but few crash states, so oracle+record per run dominate; a per-state optimisation shows nothing here"},
	{"sweep7", "seq1 then the kv app suite on all seven systems: every guest model and both checker tenants, dedup-heavy on pmfs and winefs"},
	{"campaign-seq2-nova", "seq2 on nova sharded over a loopback coordinator and two workers: same work as seq2-nova, so the gap is lease, wire and fold"},
	{"fleet-fuzz-nova", "1000-exec fleet soak on buggy nova with two workers: fuzz mutate and minimize, generation barriers, triage and the census report"},
}

// perLayer are the traced run's metrics, layer = package. Every traced run
// prints all of them; one that does not apply to the workload reads 0.
var perLayer = []metricDef{
	{Name: "ace.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.suitehash_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.format_parse_us", Unit: "us", Better: "lower"},

	{Name: "pmem.device_new_us", Unit: "us", Better: "lower"},
	{Name: "pmem.store_flush_fence_ns", Unit: "ns", Better: "lower"},
	{Name: "pmem.rollback_us_per_mb", Unit: "us/MB", Better: "lower"},

	{Name: "vfs.capture_us", Unit: "us", Better: "lower"},

	{Name: "fs.mkfs_us", Unit: "us", Better: "lower"},
	{Name: "fs.mount_us", Unit: "us", Better: "lower"},
	{Name: "fs.exec_us_per_op", Unit: "us", Better: "lower"},
	{Name: "fs.nova.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.nova-fortis.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.pmfs.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.winefs.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.splitfs.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.ext4-dax.wall_s", Unit: "s", Better: "lower"},
	{Name: "fs.xfs-dax.wall_s", Unit: "s", Better: "lower"},

	{Name: "core.oracle_s", Unit: "s", Better: "lower"},
	{Name: "core.record_s", Unit: "s", Better: "lower"},
	{Name: "core.dedup_s", Unit: "s", Better: "lower"},
	{Name: "core.replay_s", Unit: "s", Better: "lower"},
	{Name: "core.mount_s", Unit: "s", Better: "lower"},
	{Name: "core.check_s", Unit: "s", Better: "lower"},
	{Name: "core.stage_sum_share", Unit: "ratio", Better: "higher"},
	{Name: "core.workloads", Unit: "count", Better: "lower"},
	{Name: "core.fences", Unit: "count", Better: "lower"},
	{Name: "core.states_checked", Unit: "count", Better: "lower"},
	{Name: "core.states_deduped", Unit: "count", Better: "higher"},
	{Name: "core.dedup_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.image_primes", Unit: "count", Better: "lower"},
	{Name: "core.bytes_primed_per_state", Unit: "B", Better: "lower"},
	{Name: "core.bytes_materialized_per_state", Unit: "B", Better: "lower"},
	{Name: "core.bytes_rolled_back_per_state", Unit: "B", Better: "lower"},
	{Name: "core.retried_checks", Unit: "count", Better: "lower"},
	{Name: "core.quarantined", Unit: "count", Better: "lower"},
	{Name: "core.states_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.run_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "core.run_floor_us", Unit: "us", Better: "lower"},
	{Name: "core.per_state_us", Unit: "us", Better: "lower"},

	{Name: "app.kv_wall_s", Unit: "s", Better: "lower"},
	{Name: "app.kv_states_checked", Unit: "count", Better: "lower"},

	{Name: "harness.fold_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "harness.fanout_speedup_j2", Unit: "ratio", Better: "higher"},
	{Name: "harness.inworkload_speedup_w2", Unit: "ratio", Better: "higher"},

	{Name: "campaign.shards", Unit: "count", Better: "lower"},
	{Name: "campaign.shards_per_s", Unit: "1/s", Better: "higher"},
	{Name: "campaign.requests_per_shard", Unit: "ratio", Better: "lower"},
	{Name: "campaign.lease_srv_p50_us", Unit: "us", Better: "lower"},
	{Name: "campaign.lease_srv_p99_us", Unit: "us", Better: "lower"},
	{Name: "campaign.credit_srv_p50_us", Unit: "us", Better: "lower"},
	{Name: "campaign.credit_srv_p99_us", Unit: "us", Better: "lower"},
	{Name: "campaign.wire_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "campaign.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "campaign.tail_s", Unit: "s", Better: "lower"},
	{Name: "campaign.redispatched", Unit: "count", Better: "lower"},
	{Name: "campaign.duplicates", Unit: "count", Better: "lower"},
	{Name: "campaign.bad_payloads", Unit: "count", Better: "lower"},
	{Name: "campaign.quarantined", Unit: "count", Better: "lower"},
	{Name: "campaign.parallel_efficiency", Unit: "ratio", Better: "higher"},

	{Name: "fuzz.step_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "fuzz.step_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "fuzz.execs_per_s_serial", Unit: "1/s", Better: "higher"},

	{Name: "fleet.rounds", Unit: "count", Better: "lower"},
	{Name: "fleet.generations", Unit: "count", Better: "lower"},
	{Name: "fleet.execs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.min_tasks", Unit: "count", Better: "lower"},
	{Name: "fleet.min_tasks_per_s", Unit: "1/s", Better: "higher"},
	{Name: "fleet.wait_responses", Unit: "count", Better: "lower"},
	{Name: "fleet.barrier_wait_s", Unit: "s", Better: "lower"},
	{Name: "fleet.worker_busy_share", Unit: "ratio", Better: "higher"},
	{Name: "fleet.lease_srv_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.credit_srv_p99_us", Unit: "us", Better: "lower"},
	{Name: "fleet.wire_bytes_per_exec", Unit: "B", Better: "lower"},
	{Name: "fleet.corpus_entries", Unit: "count", Better: "higher"},
	{Name: "fleet.coverage_edges", Unit: "count", Better: "higher"},
	{Name: "fleet.clusters", Unit: "count", Better: "higher"},
	{Name: "fleet.dropped_rounds", Unit: "count", Better: "lower"},
	{Name: "fleet.scaling_vs_serial", Unit: "ratio", Better: "higher"},

	{Name: "report.fuzzcensus_render_ms", Unit: "ms", Better: "lower"},

	{Name: "obs.tracing_overhead_share", Unit: "ratio", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_sys_share", Unit: "ratio", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_total_ms", Unit: "ms", Better: "lower"},
}
