package main

// metric names one reported figure and its unit. better says which
// direction is an improvement.
type metric struct {
	name, unit, better string
}

// endToEnd are the figures a user of the simulator sees, measured with
// tracing off (--trace 0). The simulated ones are exact for a given code,
// workload and seed.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"epoch_us", "us", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"jct_mean_s", "s", "lower"},
	{"queue_mean_s", "s", "lower"},
	{"completed_ratio", "ratio", "higher"},
}

// perLayer are the figures of single layers, from a traced run
// (--trace 1). README.md maps each to the end-to-end metric it should
// move and the workload it moves it on.
var perLayer = []metric{
	{"sched.mckp_ms", "ms", "lower"},
	{"sched.mckp_calls", "count", "lower"},
	{"sched.mckp_p99_us", "us", "lower"},
	{"sched.phase2_ms", "ms", "lower"},
	{"sched.phase2_apply_ms", "ms", "lower"},
	{"sched.phase1_ms", "ms", "lower"},
	{"sched.make_room_ms", "ms", "lower"},
	{"sched.epoch_ms", "ms", "lower"},
	{"sched.epoch_self_ms", "ms", "lower"},
	{"sched.epoch_p99_us", "us", "lower"},
	{"orch.epoch_ms", "ms", "lower"},
	{"orch.self_ms", "ms", "lower"},
	{"orch.loan_ms", "ms", "lower"},
	{"orch.loan_calls", "count", "lower"},
	{"orch.return_idle_ms", "ms", "lower"},
	{"reclaim.plan_ms", "ms", "lower"},
	{"reclaim.plan_p99_us", "us", "lower"},
	{"reclaim.apply_ms", "ms", "lower"},
	{"reclaim.ops", "count", "lower"},
	{"reclaim.servers", "count", "lower"},
	{"reclaim.collateral_damage", "ratio", "lower"},
	{"reclaim.flex_satisfied_share", "ratio", "higher"},
	{"sched.preemptions", "count", "lower"},
	{"sched.scaling_ops", "count", "lower"},
	{"fault.crash_ms", "ms", "lower"},
	{"fault.recover_ms", "ms", "lower"},
	{"fault.crashes", "count", "lower"},
	{"fault.recoveries", "count", "higher"},
	{"sim.self_ms", "ms", "lower"},
	{"sim.arrival_ms", "ms", "lower"},
	{"sim.finish_ms", "ms", "lower"},
	{"sim.metrics_ms", "ms", "lower"},
	{"sim.epochs", "count", "lower"},
	{"sim.skipped_epochs", "count", "higher"},
	{"sim.skip_ratio", "ratio", "higher"},
	{"engine.prepare_ms", "ms", "lower"},
	{"engine.report_ms", "ms", "lower"},
	{"trace.gen_ms", "ms", "lower"},
	{"trace.jobs", "count", "higher"},
	{"spec.compile_ms", "ms", "lower"},
	{"runner.executed", "count", "lower"},
	{"runner.hits", "count", "higher"},
	{"runner.trace_gens", "count", "lower"},
	{"runner.cell_p50_ms", "ms", "lower"},
	{"runner.cell_max_ms", "ms", "lower"},
	{"prof.overhead_ratio", "ratio", "lower"},
	{"prof.attributed_pct", "%", "higher"},
}
