package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dampi/mpi"
	"dampi/verify"
)

// rep is what one repetition of a workload's fixed job measured.
type rep struct {
	verdict time.Duration   // entry-point call to final report
	replays int             // program executions completed inside verdict
	jobs    []time.Duration // latency of each verification, entry to verdict
	checked int             // verdicts compared with the pinned table
	why     []string        // one line per verification with a wrong verdict
}

// env is a workload's standing environment: whatever survives from one
// repetition to the next (programs, stores, listeners, joined workers).
type env interface {
	// run executes the fixed job once. size scales the job (1 is the size
	// README.md states); a non-nil tracer selects the traced variant.
	run(size float64, tr *tracer) (rep, error)
	// close releases listeners, workers and temp stores.
	close()
}

// workload binds a name to its environment, the program its jobs verify
// and the number of alternated native/instrumented single runs that follow
// each repetition (for overhead-* those pairs are the whole job).
type workload struct {
	workloadDef
	prog  program
	pairs int
	open  func(h *harness) (env, error) // nil: the pairs are the job
}

func workloadsTable() []workload {
	return []workload{
		{workloadDefs[0], adlbProgram, 100, func(h *harness) (env, error) {
			return &exploreEnv{workers: 0, cap: 4000}, nil
		}},
		{workloadDefs[1], adlbProgram, 100, func(h *harness) (env, error) {
			return &exploreEnv{workers: h.host.Workers, cap: 4000}, nil
		}},
		{workloadDefs[2], adlbProgram, 100, func(h *harness) (env, error) {
			return &clusterEnv{nodes: h.host.Workers, cap: 2000}, nil
		}},
		{workloadDefs[3], matmulProgram, 100, func(h *harness) (env, error) {
			return openService(h, 25)
		}},
		{workloadDefs[4], parmetisProgram, 8, nil},
		{workloadDefs[5], milcProgram, 20, nil},
	}
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadsTable() {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// adlbConfig is the exploration every ADLB workload runs: 8 ranks, bounded
// mixing k=2, capped. MixingBound is always set explicitly: verify.Config's
// zero value means k=0, not Unbounded.
func adlbConfig(cap int) verify.Config {
	return verify.Config{Procs: adlbProgram.procs, MixingBound: 2, MaxInterleavings: cap}
}

// checkCapped is the ADLB oracle: the cap was reached and nothing failed.
func checkCapped(what string, res *verify.Result, cap, requeues int) []string {
	if res.Interleavings == cap && res.Capped && !res.Errored() && res.Deadlocks == 0 && requeues == 0 {
		return nil
	}
	return []string{fmt.Sprintf("%s: interleavings=%d capped=%v errors=%d deadlocks=%d requeues=%d, want %d capped, 0, 0, 0",
		what, res.Interleavings, res.Capped, len(res.Errors), res.Deadlocks, requeues, cap)}
}

// exploreEnv runs verify.Run on the ADLB driver: explore-serial (workers 0,
// the legacy core.Explorer) and explore-steal (dexplore).
type exploreEnv struct {
	workers int
	cap     int
}

func (e *exploreEnv) close() {}

func (e *exploreEnv) run(size float64, tr *tracer) (rep, error) {
	cap := scaled(e.cap, size, 20)
	cfg := adlbConfig(cap)
	cfg.Workers = e.workers
	start := time.Now()
	if tr != nil {
		// One span per replay, from the previous completion the engine
		// reported to this one (with workers > 0, completions interleave).
		prev := start
		cfg.OnInterleaving = func(res *verify.InterleavingResult) {
			now := time.Now()
			tr.add("replay", fmt.Sprintf("replay-%d", res.Index), 0, prev, now)
			prev = now
		}
	}
	res, err := verify.Run(cfg, adlbProgram.run)
	if err != nil {
		return rep{}, fmt.Errorf("verify.Run adlb workers=%d: %w", e.workers, err)
	}
	d := time.Since(start)
	return rep{
		verdict: d, replays: res.Interleavings, jobs: []time.Duration{d},
		checked: 1, why: checkCapped(fmt.Sprintf("adlb workers=%d", e.workers), res, cap, 0),
	}, nil
}

// spanProgram wraps a program so that rank 0 records one span per
// execution: the only seam through which the benchmark sees single replays
// on cluster and service workers.
func spanProgram(run func(*mpi.Proc) error, tr *tracer, name string) func(*mpi.Proc) error {
	if tr == nil {
		return run
	}
	var n atomic.Int64
	return func(p *mpi.Proc) error {
		if p.Rank() != 0 {
			return run(p)
		}
		start := time.Now()
		err := run(p)
		tr.add(name, fmt.Sprintf("%s-%d", name, n.Add(1)), 0, start, time.Now())
		return err
	}
}

// clusterEnv runs one long job through verify.Serve and nodes one-slot
// verify.Join workers over loopback TCP. A one-shot coordinator ends with
// its job, so every repetition serves and joins afresh; nothing stands
// between repetitions.
type clusterEnv struct {
	nodes int
	cap   int
}

func (e *clusterEnv) close() {}

func (e *clusterEnv) run(size float64, tr *tracer) (rep, error) {
	cap := scaled(e.cap, size, 20)
	ccfg := verify.ClusterConfig{Config: adlbConfig(cap), Workload: adlbProgram.name, Addr: "127.0.0.1:0"}
	start := time.Now()
	c, err := verify.Serve(ccfg)
	if err != nil {
		return rep{}, fmt.Errorf("verify.Serve: %w", err)
	}
	served := time.Now()
	serveSpan := tr.add("serve", "cluster", 0, start, served)

	wcfg := ccfg
	wcfg.Addr = c.Addr().String()
	wcfg.Slots = 1
	prog := spanProgram(adlbProgram.run, tr, "replay")
	workers := make([]*verify.Worker, e.nodes)
	var wg sync.WaitGroup
	errs := make([]error, e.nodes)
	for i := range workers {
		wcfg.WorkerName = fmt.Sprintf("bench-%d", i)
		w, err := verify.Join(wcfg, prog)
		if err != nil {
			c.Stop()
			return rep{}, fmt.Errorf("verify.Join: %w", err)
		}
		workers[i] = w
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := time.Now()
			errs[i] = w.Run()
			tr.add("worker", "cluster", serveSpan, t, time.Now())
		}(i)
	}
	res, werr := c.Wait()
	done := time.Now()
	tr.add("wait", "cluster", serveSpan, served, done)
	for _, w := range workers {
		// A worker still dialling when the job ended would redial a closed
		// listener; Stop is a no-op for the ones that were told "done".
		w.Stop()
	}
	wg.Wait()
	if werr != nil {
		return rep{}, fmt.Errorf("cluster Wait: %w", werr)
	}
	for _, err := range errs {
		if err != nil {
			return rep{}, fmt.Errorf("cluster worker: %w", err)
		}
	}
	d := done.Sub(start)
	return rep{
		verdict: d, replays: res.Interleavings, jobs: []time.Duration{d},
		checked: 1, why: checkCapped("adlb cluster", res, cap, c.Status().Requeues),
	}, nil
}
