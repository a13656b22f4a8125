// Command dampid is the distributed-exploration worker daemon: it joins a
// coordinator started with `dampi -serve`, replays leased subtree tasks of
// the named workload, and streams results back until the exploration is
// done.
//
// Usage:
//
//	dampid -join host:9477 -workload matmul -procs 6 -k 1
//	dampid -join host:9477 -workload adlb -procs 12 -k 0 -slots 8
//	dampid -join host:9477 -slots 8
//
// Every exploration flag (-procs, -k, -clock, -dual, -transport, -autoloop,
// -choice-points, and the -sample/-samples/-seed/-sample-depth sampling
// parameters) must match the coordinator's, and so must the workload
// parameters (-scale, -iters), which shape the program itself: the worker
// states all of them in its handshake as one job spec, and a one-shot
// coordinator rejects any mismatch by name (a verification service instead
// keeps the worker for the jobs it does match), because a worker replaying a
// different program or interleaving space would silently corrupt the merged
// report.
//
// Without -workload the worker joins as an any-workload node, of a
// verification service (`dampi -serve -queue`) or of a one-shot `dampi
// -serve` alike: each announced job carries a full spec — workload name,
// parameters, exploration flags — and the worker builds the program from the
// registry per job. The exploration flags are then ignored (the job spec
// governs).
//
// SIGTERM (and SIGINT) drain gracefully: in-flight replays finish and
// deliver their results before the worker exits. If the coordinator
// disappears, the worker reconnects with exponential backoff and gives up
// after repeated failures.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
)

func main() {
	var (
		join       = flag.String("join", "", "coordinator address (host:port); required")
		name       = flag.String("workload", "", "workload to replay (must match the coordinator)")
		procs      = flag.Int("procs", 4, "number of MPI ranks (must match the coordinator)")
		k          = flag.Int("k", verify.Unbounded, "bounded-mixing k (-1 = full coverage; must match)")
		clock      = flag.String("clock", "lamport", "clock mode: lamport or vector (must match)")
		dual       = flag.Bool("dual", false, "dual-Lamport-clock §V extension (must match)")
		transport  = flag.String("transport", "separate", "piggyback mechanism: separate or inband (must match)")
		autoloop   = flag.Int("autoloop", 0, "auto loop detection threshold (must match)")
		scale      = flag.Int("scale", 100, "traffic divisor for proxy workloads (must match)")
		iters      = flag.Int("iters", 4, "outer iterations for proxy workloads (must match)")
		slots      = flag.Int("slots", 1, "concurrent replay slots")
		workerName = flag.String("name", "", "worker name in coordinator status (default host:pid)")
		sampleStr  = flag.String("sample", "", "schedule-sampling strategy: random or pct (must match)")
		samples    = flag.Int("samples", 64, "schedules to sample (with -sample; must match)")
		seed       = flag.Uint64("seed", 1, "sampling seed (with -sample; must match)")
		sampleDep  = flag.Int("sample-depth", 0, "exhaustive-below-depth bound (with -sample; must match)")
		choicePts  = flag.Bool("choice-points", false, "branch on Waitany/Testany completion order and Iprobe outcomes (must match; implied by -sample)")
	)
	flag.Parse()

	if *join == "" {
		flag.Usage()
		os.Exit(2)
	}

	if *name == "" {
		run(joinAnyWorkload(*join, *slots, *workerName))
		return
	}

	wl, err := workloads.Get(*name)
	if err != nil {
		fatal(err)
	}
	if *procs < wl.MinProcs {
		fatal(fmt.Errorf("%s needs at least %d procs", wl.Name, wl.MinProcs))
	}
	prog := wl.Program(workloads.Params{Procs: *procs, Scale: *scale, Iters: *iters})

	cm := verify.Lamport
	if *clock == "vector" {
		cm = verify.VectorClock
	} else if *clock != "lamport" {
		fatal(fmt.Errorf("unknown clock mode %q", *clock))
	}
	tp := verify.Separate
	if *transport == "inband" {
		tp = verify.Inband
	} else if *transport != "separate" {
		fatal(fmt.Errorf("unknown transport %q", *transport))
	}

	cfg := verify.ClusterConfig{
		Config: verify.Config{
			Procs:             *procs,
			Clock:             cm,
			DualClock:         *dual,
			Transport:         tp,
			AutoLoopThreshold: *autoloop,
			MixingBound:       *k,
			ChoicePoints:      *choicePts,
		},
		Workload:   wl.Name,
		Addr:       *join,
		Slots:      *slots,
		WorkerName: *workerName,
		Scale:      *scale,
		Iters:      *iters,
		OnEvent:    func(line string) { fmt.Println(line) },
	}
	if *sampleStr != "" {
		cfg.Mode = verify.ModeSample
		cfg.SampleStrategy = *sampleStr
		cfg.Samples = *samples
		cfg.Seed = *seed
		cfg.SampleDepth = *sampleDep
	}
	run(verify.Join(cfg, prog))
}

// joinAnyWorkload creates the worker without a pinned program: the
// coordinator announces each job's full spec, and the worker builds the
// program from the registry per job.
func joinAnyWorkload(addr string, slots int, name string) (*verify.Worker, error) {
	return verify.JoinQueue(verify.ClusterConfig{
		Addr:       addr,
		Slots:      slots,
		WorkerName: name,
		OnEvent:    func(line string) { fmt.Println(line) },
	}, func(spec verify.JobSpec) (func(p *mpi.Proc) error, error) {
		wl, err := workloads.Get(spec.Workload)
		if err != nil {
			return nil, err
		}
		if spec.Procs < wl.MinProcs {
			return nil, fmt.Errorf("%s needs at least %d procs", wl.Name, wl.MinProcs)
		}
		return wl.Program(workloads.Params{Procs: spec.Procs, Scale: spec.Scale, Iters: spec.Iters}), nil
	})
}

// run runs a joined worker until the exploration is over.
func run(w *verify.Worker, err error) {
	if err != nil {
		fatal(err)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig) // a second signal kills outright
		fmt.Fprintf(os.Stderr, "dampid: %v: draining (in-flight replays will finish)\n", s)
		w.Stop()
	}()
	if err := w.Run(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dampid: %v\n", err)
	os.Exit(1)
}
