package main

import "sort"

// metricDef names one number the program prints. BENCHMARK.json at the
// repository root lists the same names with the same units and directions;
// a unit test holds the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // share of the baseline median a change may be worse by; end-to-end only
	only   string  // the one workload the metric exists on, "" for all
	driver bool    // BENCHMARK.json carries it as end_to_end rather than per_layer
}

// endToEnd are the numbers a user of the system sees. The sim_ ones are on
// the simulated clock and repeat exactly for the same code and seed; the
// bounds here are for that same-seed comparison (-compare).
//
// The driver that reads BENCHMARK.json compares runs of different seeds,
// and wants every end-to-end metric from every workload, never zero, never
// the same on every run, with a spread across ten seeds inside a bound of at
// most a quarter. The metrics marked driver meet that, with wider bounds
// there. The rest cannot: the serve-only ones do not exist elsewhere,
// failed_share is 0 on a healthy tree, sim_pause_p95_ms sits on the
// copy-limit plateau (the same 51.2 ms for every primes seed), sim_mmu_1s,
// a minimum over windows, moves by 28 % between sort seeds, and host_run_s
// spread by up to 30 % between runs of one seed when the shared machine was
// busy, whatever statistic summarised the iterations. BENCHMARK.json lists
// those among its per-layer metrics; this program still holds all fifteen to
// their bounds when it compares two runs.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.15, driver: true},
	{name: "host_run_s", unit: "s", better: "lower", bound: 0.15},
	{name: "host_peak_rss_mb", unit: "MB", better: "lower", bound: 0.10, driver: true},
	{name: "host_mallocs_k", unit: "k", better: "lower", bound: 0.02, driver: true},
	{name: "sim_elapsed_ms", unit: "ms", better: "lower", bound: 0.01, driver: true},
	{name: "sim_pause_p50_ms", unit: "ms", better: "lower", bound: 0.01, driver: true},
	{name: "sim_pause_p95_ms", unit: "ms", better: "lower", bound: 0.01},
	{name: "sim_pause_max_ms", unit: "ms", better: "lower", bound: 0.01, driver: true},
	{name: "sim_mmu_1s", unit: "ratio", better: "higher", bound: 0.01},
	{name: "sim_lat_p50_ms", unit: "ms", better: "lower", bound: 0.01, only: "serve"},
	{name: "sim_lat_p99_ms", unit: "ms", better: "lower", bound: 0.01, only: "serve"},
	{name: "sim_lat_p999_ms", unit: "ms", better: "lower", bound: 0.01, only: "serve"},
	{name: "sim_slo_miss_share", unit: "ratio", better: "lower", bound: 0.01, only: "serve"},
	{name: "sim_knee_rps", unit: "1/s", better: "higher", bound: 0, only: "serve"},
	{name: "failed_share", unit: "ratio", better: "lower", bound: 0},
}

// perLayer are the single-layer numbers of the traced run, by module. A
// metric a workload never exercises reads 0 there.
var perLayer = []metricDef{
	{name: "lang.compile_s", unit: "s", better: "lower"},
	{name: "lang.lex_s", unit: "s", better: "lower"},
	{name: "lang.parse_s", unit: "s", better: "lower"},
	{name: "lang.codegen_s", unit: "s", better: "lower"},
	{name: "lang.tokens", unit: "count", better: "lower"},
	{name: "lang.tokens_per_s", unit: "1/s", better: "higher"},
	{name: "lang.src_kb", unit: "KB", better: "lower"},
	{name: "lang.instrs_emitted", unit: "count", better: "lower"},

	{name: "vm.run_s", unit: "s", better: "lower"},
	{name: "vm.self_s", unit: "s", better: "lower"},
	{name: "vm.steps", unit: "count", better: "lower"},
	{name: "vm.msteps_per_s", unit: "1/s", better: "higher"},
	{name: "vm.threads", unit: "count", better: "lower"},

	{name: "mutator.alloc_mb", unit: "MB", better: "lower"},
	{name: "mutator.log_writes", unit: "count", better: "lower"},
	{name: "mutator.barrier_fast_skips", unit: "count", better: "higher"},
	{name: "mutator.barrier_dirty_skips", unit: "count", better: "higher"},
	{name: "mutator.barrier_skip_ratio", unit: "ratio", better: "higher"},
	{name: "mutator.sim_alloc_ms", unit: "ms", better: "lower"},
	{name: "mutator.alloc_ns", unit: "ns", better: "lower"},
	{name: "mutator.set_ns", unit: "ns", better: "lower"},

	{name: "collector.busy_s", unit: "s", better: "lower"},
	{name: "collector.share", unit: "ratio", better: "lower"},
	{name: "collector.calls", unit: "count", better: "lower"},
	{name: "collector.span_p50_us", unit: "us", better: "lower"},
	{name: "collector.span_p95_us", unit: "us", better: "lower"},
	{name: "collector.pauses", unit: "count", better: "lower"},
	{name: "collector.minor", unit: "count", better: "lower"},
	{name: "collector.major", unit: "count", better: "lower"},
	{name: "collector.copied_mb", unit: "MB", better: "lower"},
	{name: "collector.copy_mb_per_host_s", unit: "MB/s", better: "higher"},
	{name: "collector.log_scanned", unit: "count", better: "lower"},
	{name: "collector.log_reapplied", unit: "count", better: "lower"},
	{name: "collector.reapply_ratio", unit: "ratio", better: "lower"},
	{name: "collector.root_slot_updates", unit: "count", better: "lower"},
	{name: "collector.flip_entry_updates", unit: "count", better: "lower"},
	{name: "collector.forced_completions", unit: "count", better: "lower"},
	{name: "collector.emergency_collections", unit: "count", better: "lower"},
	{name: "collector.sim_root_scan_ms", unit: "ms", better: "lower"},
	{name: "collector.sim_log_replay_ms", unit: "ms", better: "lower"},
	{name: "collector.sim_copy_ms", unit: "ms", better: "lower"},
	{name: "collector.sim_flip_ms", unit: "ms", better: "lower"},
	{name: "collector.sim_share", unit: "ratio", better: "lower"},

	{name: "group.run_s", unit: "s", better: "lower"},
	{name: "group.work_ms", unit: "ms", better: "lower"},
	{name: "group.overlap_ratio", unit: "ratio", better: "higher"},
	{name: "group.utilization_min", unit: "ratio", better: "higher"},
	{name: "group.sync_pause_max_ms", unit: "ms", better: "lower"},
	{name: "group.pauses", unit: "count", better: "lower"},
	{name: "group.merged_entries", unit: "count", better: "lower"},
	{name: "group.merge_dropped", unit: "count", better: "higher"},

	{name: "stopcopy.busy_s", unit: "s", better: "lower"},
	{name: "stopcopy.sim_elapsed_ms", unit: "ms", better: "lower"},
	{name: "stopcopy.sim_pause_max_ms", unit: "ms", better: "lower"},
	{name: "stopcopy.copied_mb", unit: "MB", better: "lower"},

	{name: "heap.new_s", unit: "s", better: "lower"},
	{name: "heap.arena_mb", unit: "MB", better: "lower"},

	{name: "simtime.digest_s", unit: "s", better: "lower"},

	{name: "trace.events", unit: "count", better: "lower"},
	{name: "trace.dropped", unit: "count", better: "lower"},
	{name: "trace.overhead_s", unit: "s", better: "lower"},
	{name: "trace.analyze_s", unit: "s", better: "lower"},
	{name: "trace.export_s", unit: "s", better: "lower"},

	{name: "checkpoint.overhead_s", unit: "s", better: "lower"},
	{name: "checkpoint.sim_overhead_pct", unit: "%", better: "lower"},
	{name: "checkpoint.epochs_committed", unit: "count", better: "higher"},
	{name: "checkpoint.epochs_aborted", unit: "count", better: "lower"},
	{name: "checkpoint.commit_ratio", unit: "ratio", better: "higher"},
	{name: "checkpoint.bytes_written", unit: "B", better: "lower"},
	{name: "checkpoint.recover_s", unit: "s", better: "lower"},

	{name: "workload.generate_s", unit: "s", better: "lower"},
	{name: "workload.serve_s", unit: "s", better: "lower"},
	{name: "workload.self_s", unit: "s", better: "lower"},
	{name: "workload.requests", unit: "count", better: "higher"},
	{name: "workload.requests_per_host_s", unit: "1/s", better: "higher"},
	{name: "workload.encode_s", unit: "s", better: "lower"},
	{name: "workload.decode_s", unit: "s", better: "lower"},
	{name: "workload.trace_kb", unit: "KB", better: "lower"},
	{name: "workload.queue_max_depth", unit: "count", better: "lower"},
	{name: "workload.queue_wait_p99_ms", unit: "ms", better: "lower"},
	{name: "workload.gc_intrusion_pct", unit: "%", better: "lower"},
	{name: "workload.idle_share", unit: "ratio", better: "higher"},
	{name: "workload.sessions_created", unit: "count", better: "lower"},
	{name: "workload.generator_lag_ms", unit: "ms", better: "lower"},

	{name: "harness.iterations", unit: "count", better: "higher"},
	{name: "harness.run_q1_s", unit: "s", better: "lower"},
	{name: "harness.run_q3_s", unit: "s", better: "lower"},
	{name: "harness.host_cpu_s", unit: "s", better: "lower"},
	{name: "harness.go_gc_cycles", unit: "count", better: "lower"},
	{name: "harness.go_gc_pause_ms", unit: "ms", better: "lower"},
	{name: "harness.total_alloc_mb", unit: "MB", better: "lower"},
	{name: "harness.tracing_overhead_pct", unit: "%", better: "lower"},
	{name: "harness.ref_probe_s", unit: "s", better: "lower"},
}

// quartiles returns the first quartile, median and third quartile of vs by
// the exclusive method, the one Python's statistics.quantiles(n=4) uses, so
// the spreads printed here are the ones the driver computes.
func quartiles(vs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4 // position k(n+1)/4, 1-based, is j + delta/4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := k*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
