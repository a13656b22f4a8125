package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"dampi/internal/core"
	"dampi/internal/isp"
	"dampi/internal/jobqueue"
	"dampi/internal/mpilint"
	"dampi/internal/piggyback"
	"dampi/internal/pnmpi"
	"dampi/internal/sample"
	"dampi/mpi"
	"dampi/verify"
)

// The layer battery: fixed micro-sections, one or a few per layer, the same
// whichever workload is selected. Each section runs a fixed op count
// (scaled by size) sectionReps times and reports the quietest. The op counts
// keep a full battery near seven seconds on a 2-core host so that it fits in
// one traced run beside the workload's own traced repetitions; a section is
// a pointer to where time goes, not a gated number.

const sectionReps = 3

// timeWorld runs prog on a fresh world and returns the wall time, world
// construction included.
func timeWorld(procs int, hooks *mpi.Hooks, prog func(*mpi.Proc) error) (time.Duration, error) {
	start := time.Now()
	err := mpi.NewWorld(mpi.Config{Procs: procs, Hooks: hooks}).Run(prog)
	return time.Since(start), err
}

// quietest runs fn n times and returns its smallest value: every section
// times a fixed op count, and on a shared host noise only adds.
func quietest(n int, fn func() (float64, error)) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		v, err := fn()
		if err != nil {
			return 0, err
		}
		best = math.Min(best, v)
	}
	return best, nil
}

// pingPongNs is the time of one round trip under the given hooks.
func pingPongNs(iters int, hooks func() *mpi.Hooks) (float64, error) {
	return quietest(sectionReps, func() (float64, error) {
		d, err := timeWorld(2, hooks(), pingPong(iters))
		return float64(d.Nanoseconds()) / float64(iters), err
	})
}

func noHooks() *mpi.Hooks { return nil }

// emptyLayers is a three-layer pnmpi stack of hooks that do nothing: what a
// call pays for dispatch alone.
func emptyLayers() *mpi.Hooks {
	layer := func() *mpi.Hooks {
		return &mpi.Hooks{
			PreSend:  func(*mpi.Proc, *mpi.SendOp) {},
			PostSend: func(*mpi.Proc, *mpi.SendOp, *mpi.Request) {},
			PreRecv:  func(*mpi.Proc, *mpi.RecvOp) {},
			PostRecv: func(*mpi.Proc, *mpi.RecvOp, *mpi.Request) {},
			PreWait:  func(*mpi.Proc, []*mpi.Request) {},
			Complete: func(*mpi.Proc, *mpi.Request, mpi.Status) {},
		}
	}
	return pnmpi.Stack(layer(), layer(), layer())
}

func toolHooks(t core.Transport) func() *mpi.Hooks {
	return func() *mpi.Hooks { return core.NewTool(core.ToolConfig{Procs: 2, Transport: t}).Hooks() }
}

func mpiSections(res *result, size float64) error {
	iters := scaled(20000, size, 50)

	before := readMem()
	bare, err := pingPongNs(iters, noHooks)
	if err != nil {
		return err
	}
	res.set("mpi.pingpong_ns", bare)
	res.set("mpi.pingpong_allocs", float64(readMem().mallocs-before.mallocs)/float64(iters*sectionReps))

	// A round trip is four MPI calls on its critical path and two messages.
	stacked, err := pingPongNs(iters, emptyLayers)
	if err != nil {
		return err
	}
	res.set("pnmpi.dispatch_ns", (stacked-bare)/4)
	for _, t := range []core.Transport{core.Separate, core.Inband} {
		inst, err := pingPongNs(iters, toolHooks(t))
		if err != nil {
			return err
		}
		res.set("piggyback."+t.String()+"_ns_per_msg", (inst-bare)/2)
	}

	const fanProcs = 8
	perSender := scaled(2000, size, 5)
	v, err := quietest(sectionReps, func() (float64, error) {
		d, err := timeWorld(fanProcs, nil, fanIn(perSender))
		return float64(d.Nanoseconds()) / float64(perSender*(fanProcs-1)), err
	})
	if err != nil {
		return err
	}
	res.set("mpi.wildcard_fanin_ns", v)

	reduces := scaled(1000, size, 5)
	v, err = quietest(sectionReps, func() (float64, error) {
		d, err := timeWorld(16, nil, allreduceLoop(reduces))
		return float64(d.Microseconds()) / float64(reduces), err
	})
	if err != nil {
		return err
	}
	res.set("mpi.allreduce_us", v)

	worlds := scaled(500, size, 5)
	v, err = quietest(sectionReps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < worlds; i++ {
			if err := mpi.NewWorld(mpi.Config{Procs: 8}).Run(emptyProgram); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / float64(worlds), nil
	})
	if err != nil {
		return err
	}
	res.set("mpi.world_spinup_us", v)
	return nil
}

// codecNs times AppendClock + DecodeClockInto on an n-element clock.
func codecNs(n, iters int) float64 {
	clock := make([]uint64, n)
	for i := range clock {
		clock[i] = uint64(i + 1)
	}
	var buf []byte
	var dec []uint64
	v, _ := quietest(sectionReps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			buf = piggyback.AppendClock(buf[:0], clock)
			dec = piggyback.DecodeClockInto(dec, buf)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	})
	return v
}

// toolSections measures core.Tool through canonical runs: clock modes on
// milc, and the bracketed tool self time per op (parmetis: deterministic,
// op-heavy) and per wildcard epoch (milc).
func toolSections(res *result, size float64) error {
	res.set("piggyback.codec_ns", codecNs(1, scaled(200000, size, 100)))
	res.set("piggyback.codec_vc64_ns", codecNs(64, scaled(50000, size, 100)))

	runs := scaled(5, size, 1)
	var lc, vc []float64
	for i := 0; i < runs; i++ {
		for _, m := range []struct {
			clock core.ClockMode
			into  *[]float64
		}{{core.Lamport, &lc}, {core.VectorClock, &vc}} {
			start := time.Now()
			if _, _, err := canonicalRun(milcProgram, core.ToolConfig{Clock: m.clock}, false); err != nil {
				return err
			}
			*m.into = append(*m.into, time.Since(start).Seconds())
		}
	}
	res.set("clock.vc_over_lc_x", lowest(vc)/lowest(lc))

	for _, s := range []struct {
		name string
		prog program
		per  func(t phaseTotals, trace *core.RunTrace) float64
	}{
		{"core.tool_ns_per_op", parmetisProgram, func(t phaseTotals, _ *core.RunTrace) float64 { return float64(t.ops) }},
		{"core.tool_ns_per_epoch", milcProgram, func(_ phaseTotals, tr *core.RunTrace) float64 { return float64(tr.WildcardCount()) }},
	} {
		v, err := quietest(scaled(sectionReps, size, 1), func() (float64, error) {
			trace, tot, err := canonicalRun(s.prog, core.ToolConfig{}, true)
			if err != nil {
				return 0, err
			}
			return float64(tot.acc[phaseTool].Nanoseconds()) / s.per(tot, trace), nil
		})
		if err != nil {
			return err
		}
		res.set(s.name, v)
	}
	return nil
}

// dfs is the bench-side single-worker schedule generator: RootTask ->
// RunContext.Run -> SubtreeTask.Expand, LIFO, the loop every engine wraps.
// It stops after max replays and returns each call's duration.
type dfsTimes struct {
	runs, expands  []time.Duration
	decisionPoints int
	deadlocks      int
}

func dfs(ecfg *core.ExplorerConfig, max int, tr *tracer) (dfsTimes, error) {
	var out dfsTimes
	rc := core.NewRunContext(ecfg)
	stack := []*core.SubtreeTask{core.RootTask(ecfg)}
	for len(stack) > 0 && len(out.runs) < max {
		task := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		id := fmt.Sprintf("dfs-%d", len(out.runs))
		t0 := time.Now()
		trace, ir, err := rc.Run(task.Decisions)
		if err != nil {
			return out, fmt.Errorf("bench-side dfs: %w", err)
		}
		t1 := time.Now()
		out.runs = append(out.runs, t1.Sub(t0))
		runSpan := tr.add("RunContext.Run", id, 0, t0, t1)
		if ir.Deadlock {
			out.deadlocks++
			continue
		}
		ex := task.Expand(ecfg, trace)
		t2 := time.Now()
		out.expands = append(out.expands, t2.Sub(t1))
		tr.add("SubtreeTask.Expand", id, runSpan, t1, t2)
		out.decisionPoints += ex.DecisionPoints
		stack = append(stack, ex.Children...)
	}
	return out, nil
}

func coreSections(res *result, size float64, tr *tracer) error {
	ecfg := core.ExplorerConfig{Procs: adlbProgram.procs, Program: adlbProgram.run, MixingBound: 2}
	times, err := dfs(&ecfg, scaled(3000, size, 20), tr)
	if err != nil {
		return err
	}
	runs, expands := in(time.Microsecond, times.runs), in(time.Microsecond, times.expands)
	res.set("core.replay_us_p50", median(runs))
	res.set("core.replay_us_p95", percentile(runs, 95))
	res.set("core.expand_us_p50", median(expands))
	res.set("core.expand_share", sum(expands)/(sum(runs)+sum(expands)))
	res.set("core.decision_points_per_replay", float64(times.decisionPoints)/float64(len(runs)))

	n := scaled(200, size, 5)
	var cold, warm []float64
	rc := core.NewRunContext(&ecfg)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, _, err := core.ExecuteRun(&ecfg, nil); err != nil {
			return fmt.Errorf("cold run: %w", err)
		}
		t1 := time.Now()
		if _, _, err := rc.Run(nil); err != nil {
			return fmt.Errorf("warm run: %w", err)
		}
		cold = append(cold, float64(t1.Sub(t0).Microseconds()))
		warm = append(warm, float64(time.Since(t1).Microseconds()))
	}
	res.set("core.cold_run_us", median(cold))
	res.set("core.warm_run_us", median(warm))

	d := core.NewDecisions()
	for i := 0; i < 20; i++ {
		d.Force(core.EpochID{Rank: i % 8, LC: uint64(i + 1)}, (i*3)%8)
	}
	iters := scaled(1000, size, 20)
	v, err := quietest(sectionReps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			body, err := json.Marshal(d)
			if err != nil {
				return 0, err
			}
			if err := json.Unmarshal(body, core.NewDecisions()); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
	})
	if err != nil {
		return fmt.Errorf("decisions JSON round trip: %w", err)
	}
	res.set("core.decisions_json_ns", v)
	return nil
}

// checkNull compares one engine's task count on the null tree with 4^depth
// (the hand-written 16384 at the pinned depth).
func checkNull(res *result, engine string, depth int, r nullResult) {
	want := nullTasks(depth)
	if depth == nullTreeDepth {
		want = expectNullTasks
	}
	res.verdict(r.tasks == want, "null tree depth %d on %s: %d tasks, want %d", depth, engine, r.tasks, want)
}

// nullSections runs the null-replay tree on the three engines. The local
// engines take the pinned depth-7 tree; dcoord, at roughly 70us a task,
// takes depth clusterDepth to stay inside the battery's budget.
func nullSections(h *harness, res *result, size float64) error {
	depth, clusterDepth := nullTreeDepth, nullTreeDepth-1
	if size < 1 {
		depth, clusterDepth = 4, 3
	}
	engines := []struct {
		name, engine string
		depth, reps  int
		run          func() (nullResult, error)
	}{
		{"core.null_us_per_task", "core.Explorer", depth, sectionReps, func() (nullResult, error) { return nullSerial(depth) }},
		{"dexplore.null_us_per_task_w1", "dexplore w=1", depth, sectionReps, func() (nullResult, error) { return nullSteal(depth, 1) }},
		{"dexplore.null_us_per_task_wN", "dexplore w=W", depth, sectionReps, func() (nullResult, error) { return nullSteal(depth, h.host.Workers) }},
		{"dcoord.null_us_per_task_1w", "dcoord 1 worker", clusterDepth, 1, func() (nullResult, error) { return nullCluster(clusterDepth, 1) }},
		{"dcoord.null_us_per_task_Nw", "dcoord W workers", clusterDepth, 1, func() (nullResult, error) { return nullCluster(clusterDepth, h.host.Workers) }},
	}
	var joins []float64
	requeues := 0
	for _, e := range engines {
		v, err := quietest(e.reps, func() (float64, error) {
			r, err := e.run()
			if err != nil {
				return 0, err
			}
			checkNull(res, e.engine, e.depth, r)
			if r.join > 0 { // the cluster runs
				joins = append(joins, float64(r.join.Microseconds())/1000)
				requeues += r.requeues
			}
			return r.usPerTask(), nil
		})
		if err != nil {
			return err
		}
		res.set(e.name, v)
	}
	res.set("dcoord.join_ms", median(joins))
	res.set("dcoord.requeues", float64(requeues))
	return nil
}

// engineSections compares the three engines on a short capped ADLB
// exploration: what dexplore adds over the serial explorer at one worker,
// how it scales to W, what checkpointing costs, and what the dcoord wire
// adds over dexplore.
func engineSections(h *harness, res *result, size float64) error {
	cap := scaled(2000, size, 20)
	rate := func(what string, cfg verify.Config) (float64, time.Duration, error) {
		start := time.Now()
		out, err := verify.Run(cfg, adlbProgram.run)
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", what, err)
		}
		d := time.Since(start)
		res.absorb(1, checkCapped(what, out, cap, 0))
		return float64(out.Interleavings) / d.Seconds(), d, nil
	}
	with := func(workers int) verify.Config {
		cfg := adlbConfig(cap)
		cfg.Workers = workers
		return cfg
	}
	serial, _, err := rate("battery adlb serial", with(0))
	if err != nil {
		return err
	}
	w1, w1Time, err := rate("battery adlb w=1", with(1))
	if err != nil {
		return err
	}
	wN, _, err := rate("battery adlb w=W", with(h.host.Workers))
	if err != nil {
		return err
	}
	dir, err := h.tempDir("ckp")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ckp := with(1)
	ckp.CheckpointFile = filepath.Join(dir, "frontier.json")
	ckp.CheckpointEvery = 32
	_, ckpTime, err := rate("battery adlb w=1 checkpointing", ckp)
	if err != nil {
		return err
	}
	res.set("dexplore.overhead_x", serial/w1)
	res.set("dexplore.scaling_eff", wN/(float64(h.host.Workers)*w1))
	res.set("dexplore.checkpoint_ms_per_kreplay", float64((ckpTime-w1Time).Microseconds())/float64(cap))

	cl, err := (&clusterEnv{nodes: h.host.Workers, cap: cap}).run(1, nil)
	if err != nil {
		return err
	}
	res.absorb(cl.checked, cl.why)
	res.set("dcoord.overhead_x", wN/(float64(cl.replays)/cl.verdict.Seconds()))
	return nil
}

// jobqueueSections runs a small service batch over REST, then the store
// alone on a temp directory, then re-opens that store.
func jobqueueSections(h *harness, res *result, size float64) error {
	svc, err := openService(h, 0)
	if err != nil {
		return err
	}
	n := scaled(24, size, 2)
	r, stats, err := svc.runJobs(n, nil)
	svc.close()
	if err != nil {
		return err
	}
	res.absorb(r.checked, r.why)
	pick := func(f func(jobTiming) time.Duration) []float64 {
		out := make([]float64, len(stats.jobs))
		for i, j := range stats.jobs {
			out[i] = float64(f(j).Microseconds()) / 1000
		}
		return out
	}
	submits := pick(func(j jobTiming) time.Duration { return j.submit })
	runMs := median(pick(func(j jobTiming) time.Duration { return j.run }))
	res.set("jobqueue.submit_ms_p50", median(submits))
	res.set("jobqueue.submit_ms_p95", percentile(submits, 95))
	res.set("jobqueue.queue_wait_ms_p50", median(pick(func(j jobTiming) time.Duration { return j.queueWait })))
	res.set("jobqueue.run_ms_p50", runMs)
	res.set("jobqueue.report_get_ms_p50", median(pick(func(j jobTiming) time.Duration { return j.reportGet })))
	res.set("jobqueue.job_p95_ms", percentile(pick(func(j jobTiming) time.Duration { return j.terminal }), 95))
	res.set("jobqueue.jobs_per_s", float64(n)/r.verdict.Seconds())

	// The same spec verified in-process: what the queue, the announce and
	// the wire add to one job.
	spec := verify.Config{Procs: matmulProgram.procs, MixingBound: 0, MaxInterleavings: 1000}
	local, err := quietest(5, func() (float64, error) {
		start := time.Now()
		out, err := verify.Run(spec, matmulProgram.run)
		if err != nil {
			return 0, fmt.Errorf("in-process matmul job: %w", err)
		}
		res.verdict(out.Interleavings == expectServiceInterleavings && !out.Errored(),
			"in-process matmul p=8 k=0: %d interleavings, pinned %d", out.Interleavings, expectServiceInterleavings)
		return float64(time.Since(start).Microseconds()) / 1000, nil
	})
	if err != nil {
		return err
	}
	res.set("jobqueue.overhead_x", runMs/local)

	dir, err := h.tempDir("store")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := jobqueue.OpenStore(jobqueue.StoreConfig{Dir: dir})
	if err != nil {
		return err
	}
	jobs := scaled(100, size, 2)
	report := &jobqueue.JobReport{Workload: matmulProgram.name, Procs: matmulProgram.procs, Interleavings: expectServiceInterleavings}
	start := time.Now()
	for i := 0; i < jobs; i++ {
		job, _, err := store.Submit(verify.JobSpec{Workload: matmulProgram.name, Procs: matmulProgram.procs, MaxInterleavings: 1000 + i}, 0)
		if err != nil {
			return err
		}
		for _, to := range []jobqueue.State{jobqueue.Running, jobqueue.Merging} {
			if _, err := store.SetState(job.ID, to, ""); err != nil {
				return err
			}
		}
		if err := store.SaveReport(job.ID, report); err != nil {
			return err
		}
		if _, err := store.SetState(job.ID, jobqueue.Done, ""); err != nil {
			return err
		}
	}
	res.set("jobqueue.store_us_per_job", float64(time.Since(start).Microseconds())/float64(jobs))
	if err := store.Close(); err != nil {
		return err
	}
	start = time.Now()
	store, err = jobqueue.OpenStore(jobqueue.StoreConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("re-opening the job store: %w", err)
	}
	res.set("jobqueue.reopen_ms", float64(time.Since(start).Microseconds())/1000)
	got := len(store.List())
	res.verdict(got == jobs, "re-opened store holds %d jobs, wrote %d", got, jobs)
	return store.Close()
}

// sampleConfig is the seeded sample every sampler number comes from.
func sampleConfig(seed uint64) verify.Config {
	return verify.Config{
		Procs: iprobeProgram.procs, MixingBound: verify.Unbounded,
		Mode: verify.ModeSample, SampleStrategy: "pct", Samples: 2000, Seed: seed,
	}
}

// checkSample verifies two properties of a seeded sample: it reaches the
// iprobe master's deadlock, and it repeats its distinct count exactly.
func checkSample(out *verify.Result, distinct int) []string {
	switch {
	case (out.Deadlocks > 0) != expectSampleFindsDeadlock:
		return []string{fmt.Sprintf("iprobe sample: deadlocks=%d, pinned found=%v", out.Deadlocks, expectSampleFindsDeadlock)}
	case distinct >= 0 && out.SampledDistinct != distinct:
		return []string{fmt.Sprintf("iprobe sample: distinct=%d, an earlier run of the same seed gave %d", out.SampledDistinct, distinct)}
	}
	return nil
}

func sampleSections(h *harness, res *result, size float64) error {
	runs := scaled(100, size, 2)
	replays, distinct := 0, -1
	start := time.Now()
	for i := 0; i < runs; i++ {
		out, err := verify.Run(sampleConfig(h.seed), iprobeProgram.run)
		if err != nil {
			return fmt.Errorf("iprobe sample: %w", err)
		}
		res.absorb(1, checkSample(out, distinct))
		replays += out.Interleavings
		distinct = out.SampledDistinct
	}
	res.set("sample.replays_per_s", float64(replays)/time.Since(start).Seconds())
	res.set("sample.distinct", float64(distinct))

	// Sampler.Expand is reached through the same seam as exhaustive
	// expansion, so the bench-side dfs times it.
	var expands []time.Duration
	for i := 0; i < runs; i++ {
		ecfg := core.ExplorerConfig{
			Procs: iprobeProgram.procs, Program: iprobeProgram.run, MixingBound: core.Unbounded, ChoicePoints: true,
			Sampler: sample.New(sample.Config{Strategy: sample.PCT, Samples: 2000, Seed: h.seed, Procs: iprobeProgram.procs}),
		}
		times, err := dfs(&ecfg, 1000, nil)
		if err != nil {
			return err
		}
		expands = append(expands, times.expands...)
	}
	res.set("sample.expand_us_p50", median(in(time.Nanosecond, expands))/1000)
	return nil
}

func otherSections(h *harness, res *result, size float64) error {
	root := h.root
	// The analyzer's unit of work is a package: the full section lints the
	// workloads tree, a scaled-down one the fanin package alone.
	tree := filepath.Join(root, "workloads") + "/..."
	if size < 1 {
		tree = filepath.Join(root, "workloads", "fanin")
	}
	start := time.Now()
	if _, err := mpilint.Run([]string{tree}, mpilint.Options{}); err != nil {
		return fmt.Errorf("mpilint.Run: %w", err)
	}
	res.set("mpilint.analyze_s", time.Since(start).Seconds())
	start = time.Now()
	hints, _, err := verify.StaticHints(filepath.Join(root, "workloads", "fanin"), 4)
	if err != nil {
		return fmt.Errorf("verify.StaticHints: %w", err)
	}
	res.set("commgraph.hints_ms", float64(time.Since(start).Microseconds())/1000)
	res.verdict(hints != nil, "StaticHints(workloads/fanin, 4) derived no hint table")

	cap := scaled(250, size, 4)
	start = time.Now()
	ispRep, err := isp.NewExplorer(isp.Config{Procs: matmulProgram.procs, Program: matmulProgram.run, MaxInterleavings: cap}).Explore()
	if err != nil {
		return fmt.Errorf("isp baseline: %w", err)
	}
	ispRate := float64(ispRep.Interleavings) / time.Since(start).Seconds()
	start = time.Now()
	out, err := verify.Run(verify.Config{Procs: matmulProgram.procs, MixingBound: verify.Unbounded, MaxInterleavings: cap}, matmulProgram.run)
	if err != nil {
		return fmt.Errorf("dampi on the isp baseline's job: %w", err)
	}
	dampiRate := float64(out.Interleavings) / time.Since(start).Seconds()
	res.verdict(ispRep.Interleavings == cap && !ispRep.Errored() && out.Interleavings == cap && !out.Errored(),
		"matmul cap %d: isp %d interleavings, dampi %d", cap, ispRep.Interleavings, out.Interleavings)
	res.set("isp.replays_per_s", ispRate)
	res.set("isp.over_dampi_x", dampiRate/ispRate)

	var on, off []float64
	for i := 0; i < scaled(sectionReps, size, 1); i++ {
		for _, leaks := range []bool{false, true} {
			start := time.Now()
			if _, err := verify.Run(verify.Config{Procs: parmetisProgram.procs, MixingBound: verify.Unbounded, MaxInterleavings: 1, CheckLeaks: leaks}, parmetisProgram.run); err != nil {
				return fmt.Errorf("leak check run: %w", err)
			}
			if leaks {
				on = append(on, time.Since(start).Seconds())
			} else {
				off = append(off, time.Since(start).Seconds())
			}
		}
	}
	res.set("leak.overhead_x", lowest(on)/lowest(off))
	return nil
}

// layerBattery runs every section and records its metrics and verdict
// checks in res.
func layerBattery(h *harness, res *result, size float64, tr *tracer) error {
	if err := mpiSections(res, size); err != nil {
		return fmt.Errorf("mpi sections: %w", err)
	}
	if err := toolSections(res, size); err != nil {
		return fmt.Errorf("tool sections: %w", err)
	}
	if err := coreSections(res, size, tr); err != nil {
		return fmt.Errorf("core sections: %w", err)
	}
	if err := nullSections(h, res, size); err != nil {
		return fmt.Errorf("null-tree sections: %w", err)
	}
	if err := engineSections(h, res, size); err != nil {
		return fmt.Errorf("engine sections: %w", err)
	}
	if err := jobqueueSections(h, res, size); err != nil {
		return fmt.Errorf("jobqueue sections: %w", err)
	}
	if err := sampleSections(h, res, size); err != nil {
		return fmt.Errorf("sample sections: %w", err)
	}
	if err := otherSections(h, res, size); err != nil {
		return fmt.Errorf("mpilint/isp/leak sections: %w", err)
	}
	return nil
}
