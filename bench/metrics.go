package main

// metric describes one reported number; BENCHMARK.json lists the same
// names, units and directions (a test keeps the two in step).
type metric struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before it counts as a regression; per-layer
	// metrics have none.
	bound float64
	// partial marks a time that only some workloads measure (the search's
	// self time on an estimate).  It is printed for every workload, 0 where
	// it does not apply, but kept off the result line and out of
	// BENCHMARK.json: a checker of that line cannot tell a time that is
	// structurally 0 on every run from a clock that was never read.
	partial bool
}

// endToEnd are the metrics a user of the system sees, each the median over
// a run's cases of the case's best repetition.
var endToEnd = []metric{
	{name: "wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.25},
	{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer are the traced run's metrics, layer.metric, layers named after
// the packages.  A metric that does not apply to a workload (optimize.* on
// an estimate, wire bytes in process) reads 0 there.
var perLayer = []metric{
	{name: "encoder.encode_ms", unit: "ms", better: "lower"},
	{name: "encoder.vars", unit: "count", better: "lower"},
	{name: "encoder.clauses", unit: "count", better: "lower"},

	{name: "solver.busy_s", unit: "s", better: "lower"},
	{name: "solver.solves", unit: "count", better: "lower"},
	{name: "solver.propagations", unit: "count", better: "lower"},
	{name: "solver.conflicts", unit: "count", better: "lower"},
	{name: "solver.decisions", unit: "count", better: "lower"},
	{name: "solver.reduce_dbs", unit: "count", better: "lower"},
	{name: "solver.learned", unit: "count", better: "lower"},
	{name: "solver.arena_bytes", unit: "B", better: "lower"},
	{name: "solver.props_per_s", unit: "1/s", better: "higher"},
	{name: "solver.conflicts_per_s", unit: "1/s", better: "higher"},
	{name: "solver.solve_p50_us", unit: "us", better: "lower"},
	{name: "solver.solve_p99_us", unit: "us", better: "lower"},
	{name: "solver.new_ms", unit: "ms", better: "lower"},
	{name: "solver.reset_us", unit: "us", better: "lower"},
	{name: "solver.allocs_per_solve", unit: "count", better: "lower"},
	{name: "solver.bytes_per_solve", unit: "B", better: "lower"},
	{name: "solver.replay_mismatch", unit: "count", better: "lower"},

	{name: "cluster.batches", unit: "count", better: "lower"},
	{name: "cluster.tasks", unit: "count", better: "lower"},
	{name: "cluster.run_s", unit: "s", better: "lower"},
	{name: "cluster.batch_p50_ms", unit: "ms", better: "lower"},
	{name: "cluster.batch_p95_ms", unit: "ms", better: "lower"},
	{name: "cluster.first_result_ms_p50", unit: "ms", better: "lower"},
	{name: "cluster.slot_util_pct", unit: "%", better: "higher"},
	{name: "cluster.task_overhead_us", unit: "us", better: "lower"},
	{name: "cluster.tasks_per_s", unit: "1/s", better: "higher"},
	{name: "cluster.alloc_kb_per_task", unit: "kB", better: "lower"},
	{name: "cluster.aborted_tasks", unit: "count", better: "lower"},
	{name: "cluster.abort_latency_ms_p50", unit: "ms", better: "lower", partial: true},
	{name: "cluster.tasks_stolen", unit: "count", better: "lower"},
	{name: "cluster.speculative_duplicates", unit: "count", better: "lower"},
	{name: "cluster.speculation_wins", unit: "count", better: "higher"},
	{name: "cluster.wire_bytes_out_per_task", unit: "B", better: "lower"},
	{name: "cluster.wire_bytes_in_per_task", unit: "B", better: "lower"},
	{name: "cluster.wire_bytes_setup", unit: "B", better: "lower"},
	{name: "cluster.worker_join_ms", unit: "ms", better: "lower"},

	{name: "pdsat.evaluations", unit: "count", better: "lower"},
	{name: "pdsat.self_s", unit: "s", better: "lower"},
	{name: "pdsat.self_us_per_sample", unit: "us", better: "lower"},
	{name: "pdsat.samples_planned", unit: "count", better: "lower"},
	{name: "pdsat.samples_solved", unit: "count", better: "lower"},
	{name: "pdsat.samples_aborted", unit: "count", better: "lower"},
	{name: "pdsat.samples_skipped", unit: "count", better: "higher"},
	{name: "pdsat.ledger_imbalance", unit: "count", better: "lower"},
	{name: "pdsat.solve_self_s", unit: "s", better: "lower", partial: true},
	{name: "pdsat.family_size", unit: "count", better: "lower"},
	{name: "pdsat.predict_dev_pct", unit: "%", better: "lower"},
	{name: "decomp.sample_us", unit: "us", better: "lower"},
	{name: "montecarlo.estimate_us", unit: "us", better: "lower"},

	{name: "eval.calls", unit: "count", better: "lower"},
	{name: "eval.self_s", unit: "s", better: "lower"},
	{name: "eval.self_us_per_call", unit: "us", better: "lower"},
	{name: "eval.cache_hits", unit: "count", better: "higher"},
	{name: "eval.pruned", unit: "count", better: "higher"},
	{name: "eval.early_stopped", unit: "count", better: "higher"},
	{name: "eval.samples_saved_pct", unit: "%", better: "higher"},
	{name: "eval.latency_p50_ms", unit: "ms", better: "lower"},
	{name: "eval.latency_p95_ms", unit: "ms", better: "lower"},

	{name: "optimize.visits", unit: "count", better: "lower"},
	{name: "optimize.self_s", unit: "s", better: "lower", partial: true},
	{name: "optimize.self_us_per_visit", unit: "us", better: "lower", partial: true},
	{name: "optimize.best_f", unit: "props", better: "lower"},
	{name: "optimize.best_set_size", unit: "count", better: "lower"},

	{name: "session.events", unit: "count", better: "lower"},
	{name: "session.submit_us", unit: "us", better: "lower"},
	{name: "session.result_lag_us", unit: "us", better: "lower"},

	{name: "job.self_s", unit: "s", better: "lower"},
	{name: "job.self_sum_error_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}
