package main

// metricDef declares one metric of the ledger. BENCHMARK.json repeats the
// name, unit, direction and bound (the smoke test keeps the two in step);
// Moves is the prediction the README tabulates: which end-to-end metric a
// layer metric should move, and on which workload.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the baseline median a median may worsen
	Moves  string  // per-layer only
}

// endToEnd is what a user of the verifier sees, reported by every workload
// in the timed (-trace 0) pass.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "verdict_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "replays_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "slowdown_x", Unit: "x", Better: "lower", Bound: 0.20},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_kb_per_replay", Unit: "KB", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer is what the traced (-trace 1) pass reports. The first block is
// measured on the workload's own program and job; the rest is the layer
// battery, the same fixed sections whichever workload is selected.
var perLayer = []metricDef{
	// Measured on the selected workload.
	{Name: "trace.overhead_x", Unit: "x", Better: "lower", Moves: "nothing: traced verdict_s over untraced verdict_s, the cost of the bench-side spans"},
	{Name: "mpi.native_batch_s", Unit: "s", Better: "lower", Moves: "slowdown_x (denominator) on every workload"},
	{Name: "mpi.ops_per_run", Unit: "count", Better: "lower", Moves: "nothing: exact op count of the workload's program (pinned on overhead-*)"},
	{Name: "mpi.native_ns_per_op", Unit: "ns", Better: "lower", Moves: "verdict_s on overhead-parmetis most; raises slowdown_x when it falls alone"},
	{Name: "core.phase_program_share", Unit: "share", Better: "lower", Moves: "verdict_s: share of rank wall time in user code"},
	{Name: "core.phase_tool_share", Unit: "share", Better: "lower", Moves: "slowdown_x: share of rank wall time in core.Tool hooks"},
	{Name: "core.phase_runtime_share", Unit: "share", Better: "lower", Moves: "verdict_s: share of rank wall time in mpi matching and blocking"},
	{Name: "go.mallocs_per_replay", Unit: "count", Better: "lower", Moves: "alloc_kb_per_replay, replays_per_s on explore-serial"},
	{Name: "go.gc_cycles_per_kreplay", Unit: "count", Better: "lower", Moves: "replays_per_s on explore-*"},

	// mpi
	{Name: "mpi.pingpong_ns", Unit: "ns", Better: "lower", Moves: "verdict_s on overhead-parmetis; replays_per_s on explore-*"},
	{Name: "mpi.pingpong_allocs", Unit: "count", Better: "lower", Moves: "alloc_kb_per_replay on every workload"},
	{Name: "mpi.wildcard_fanin_ns", Unit: "ns", Better: "lower", Moves: "verdict_s on overhead-milc"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower", Moves: "verdict_s on overhead-parmetis"},
	{Name: "mpi.world_spinup_us", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-*"},
	// pnmpi
	{Name: "pnmpi.dispatch_ns", Unit: "ns", Better: "lower", Moves: "slowdown_x on overhead-parmetis"},
	// piggyback
	{Name: "piggyback.separate_ns_per_msg", Unit: "ns", Better: "lower", Moves: "slowdown_x on overhead-parmetis"},
	{Name: "piggyback.inband_ns_per_msg", Unit: "ns", Better: "lower", Moves: "nothing gated: the Inband ablation"},
	{Name: "piggyback.codec_ns", Unit: "ns", Better: "lower", Moves: "slowdown_x on overhead-parmetis"},
	{Name: "piggyback.codec_vc64_ns", Unit: "ns", Better: "lower", Moves: "clock.vc_over_lc_x"},
	// clock
	{Name: "clock.vc_over_lc_x", Unit: "x", Better: "lower", Moves: "slowdown_x on overhead-milc in VectorClock mode only"},
	// core
	{Name: "core.tool_ns_per_op", Unit: "ns", Better: "lower", Moves: "slowdown_x on overhead-parmetis"},
	{Name: "core.tool_ns_per_epoch", Unit: "ns", Better: "lower", Moves: "slowdown_x on overhead-milc"},
	{Name: "core.replay_us_p50", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-* and cluster-adlb"},
	{Name: "core.replay_us_p95", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-steal (stragglers)"},
	{Name: "core.expand_us_p50", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-*"},
	{Name: "core.expand_share", Unit: "share", Better: "lower", Moves: "replays_per_s on explore-*"},
	{Name: "core.decision_points_per_replay", Unit: "count", Better: "lower", Moves: "nothing: shape of the ADLB flip tree"},
	{Name: "core.cold_run_us", Unit: "us", Better: "lower", Moves: "verdict_s on service-matmul (fresh context per job)"},
	{Name: "core.warm_run_us", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-*"},
	{Name: "core.null_us_per_task", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-serial"},
	{Name: "core.decisions_json_ns", Unit: "ns", Better: "lower", Moves: "replays_per_s on cluster-adlb"},
	// dexplore
	{Name: "dexplore.null_us_per_task_w1", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-steal"},
	{Name: "dexplore.null_us_per_task_wN", Unit: "us", Better: "lower", Moves: "replays_per_s on explore-steal"},
	{Name: "dexplore.overhead_x", Unit: "x", Better: "lower", Moves: "replays_per_s on explore-steal only"},
	{Name: "dexplore.scaling_eff", Unit: "share", Better: "higher", Moves: "replays_per_s on explore-steal only"},
	{Name: "dexplore.checkpoint_ms_per_kreplay", Unit: "ms", Better: "lower", Moves: "nothing gated: no workload checkpoints"},
	// dcoord
	{Name: "dcoord.null_us_per_task_1w", Unit: "us", Better: "lower", Moves: "replays_per_s on cluster-adlb"},
	{Name: "dcoord.null_us_per_task_Nw", Unit: "us", Better: "lower", Moves: "replays_per_s on cluster-adlb"},
	{Name: "dcoord.overhead_x", Unit: "x", Better: "lower", Moves: "replays_per_s on cluster-adlb, nothing on explore-*"},
	{Name: "dcoord.join_ms", Unit: "ms", Better: "lower", Moves: "verdict_s on cluster-adlb"},
	{Name: "dcoord.requeues", Unit: "count", Better: "lower", Moves: "nothing: must be 0"},
	// jobqueue
	{Name: "jobqueue.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms on service-matmul"},
	{Name: "jobqueue.submit_ms_p95", Unit: "ms", Better: "lower", Moves: "job_p50_ms on service-matmul"},
	{Name: "jobqueue.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms on service-matmul"},
	{Name: "jobqueue.run_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms, verdict_s on service-matmul"},
	{Name: "jobqueue.report_get_ms_p50", Unit: "ms", Better: "lower", Moves: "verdict_s on service-matmul"},
	{Name: "jobqueue.job_p95_ms", Unit: "ms", Better: "lower", Moves: "verdict_s on service-matmul"},
	{Name: "jobqueue.jobs_per_s", Unit: "1/s", Better: "higher", Moves: "replays_per_s on service-matmul"},
	{Name: "jobqueue.store_us_per_job", Unit: "us", Better: "lower", Moves: "job_p50_ms on service-matmul"},
	{Name: "jobqueue.reopen_ms", Unit: "ms", Better: "lower", Moves: "setup_s on service-matmul"},
	{Name: "jobqueue.overhead_x", Unit: "x", Better: "lower", Moves: "job_p50_ms on service-matmul"},
	// sample
	{Name: "sample.replays_per_s", Unit: "1/s", Better: "higher", Moves: "none of the six workloads (prediction: flat)"},
	{Name: "sample.expand_us_p50", Unit: "us", Better: "lower", Moves: "none of the six workloads (prediction: flat)"},
	{Name: "sample.distinct", Unit: "count", Better: "higher", Moves: "nothing: identical for one seed"},
	// mpilint / commgraph
	{Name: "mpilint.analyze_s", Unit: "s", Better: "lower", Moves: "nothing gated"},
	{Name: "commgraph.hints_ms", Unit: "ms", Better: "lower", Moves: "nothing gated"},
	// isp (paper baseline, Fig. 6)
	{Name: "isp.replays_per_s", Unit: "1/s", Better: "higher", Moves: "nothing gated"},
	{Name: "isp.over_dampi_x", Unit: "x", Better: "higher", Moves: "nothing gated: DAMPI rate over ISP rate"},
	// leak
	{Name: "leak.overhead_x", Unit: "x", Better: "lower", Moves: "nothing gated: no workload checks leaks"},
}

// workloadDef names one workload; BENCHMARK.json repeats name and why.
type workloadDef struct {
	Name string
	Why  string
}

var workloadDefs = []workloadDef{
	{"explore-serial", "4000 short ADLB replays on the legacy serial explorer: per-replay fixed cost dominates; the reference row"},
	{"explore-steal", "the same replays through dexplore deques, steal and park: scheduling and scaling show only here"},
	{"cluster-adlb", "the same replays as one long job over dcoord loopback TCP: the gap to explore-steal is the wire's cost"},
	{"service-matmul", "25 small REST jobs on the dcoord pool: per-job fixed cost (WAL, state machine, announce) dominates"},
	{"overhead-parmetis", "Table II slowdown on a deterministic op-heavy program: zero epochs, zero replays, only mpi+pnmpi+piggyback+clock"},
	{"overhead-milc", "Table II slowdown on the wildcard-dominated case: AnySource matching and core.Tool epoch bookkeeping dominate"},
}
