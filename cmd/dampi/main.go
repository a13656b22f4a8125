// Command dampi verifies a named benchmark workload over the space of MPI
// non-determinism, printing the coverage report — the command-line face of
// the library.
//
// Usage:
//
//	dampi -list
//	dampi -workload matmul -procs 6 -k 1
//	dampi -workload adlb -procs 12 -k 0 -max 5000
//	dampi -workload 104.milc -procs 64 -leaks
//	dampi -workload matmul -procs 4 -baseline isp
//	dampi -lint ./workloads/... -workload adlb -procs 8
//	dampi -workload fanin -procs 4 -k 0 -static-prune ./workloads/fanin
//	dampi -workload iprobe -procs 2 -sample random -samples 64 -seed 7
//	dampi -serve :9477 -status :9478 -workload matmul -procs 6 -k 1
//	dampi -join host:9477 -workload matmul -procs 6 -k 1 -slots 4
//	dampi -serve :9477 -queue -api :9478 -store /var/lib/dampi
//	dampi -submit http://host:9478 -workload matmul -procs 6 -k 1 -wait
//
// The -serve mode runs the distributed coordinator: it owns the exploration
// frontier and merges worker results into the same report a local run would
// print. It announces the exploration as a job spec, so workers join with
// `dampid -join ADDR` alone and build the program from it; `dampi -join` is
// the one way to pin a worker to a workload instead — it passes the same
// workload, -scale/-iters and exploration flags, and the handshake rejects
// any mismatch by name. SIGTERM drains gracefully on both sides.
//
// With -queue, -serve instead runs the persistent verification service: a
// durable job queue (write-ahead log + snapshots under -store) with a REST
// API and live dashboard on -api, drained continuously onto the connected
// dampid worker pool. Submit jobs with `dampi -submit URL -workload ...`
// (add -wait to poll to completion and print the report) or plain curl; see
// DESIGN.md "Verification service".
//
// The -sample STRATEGY flag (random or pct) switches from exhaustive
// exploration to seeded schedule sampling: the space below -sample-depth is
// still explored exhaustively, and beyond it -samples schedules are drawn by
// seeded random walks (or PCT-style priority schedules) over every decision
// point — wildcard receive sources, Waitany/Testany completion order, and
// Iprobe outcomes. The same -seed reproduces the same schedule set, byte for
// byte, locally or across a cluster; -sample-dump FILE saves the distinct
// sampled decision vectors. Without -sample, pass -choice-points to make the
// exhaustive engines branch on Waitany/Testany/Iprobe outcomes too.
//
// Erroneous interleavings are printed with their epoch-decisions reproducer;
// pass -decisions FILE to save the first reproducer as a JSON decisions
// file (replayable by any DAMPI run of the same program).
//
// The -lint PATH flag runs the mpilint static analyzer (see cmd/mpilint)
// over the given Go sources before exploration: error-severity findings
// (R-leaks, C-leaks, discarded errors, buffer reuse, rank-conditional
// collectives) are printed up front, and the wildcard-receive audit is
// printed alongside the coverage report so the statically-found
// non-determinism sites can be compared with what exploration exercised.
// With -lint but no -workload, dampi lints and exits (status 1 if any
// non-suppressed finding). Error-severity lint findings floor the exit code
// at 1 even when exploration runs and passes.
//
// The -static-prune PATH flag statically analyzes the workload's Go sources
// (the same communication-graph analysis behind mpilint's orphan/
// tagmismatch/wilddet/cycle checks) and derives prune hints: wildcard
// decision points whose statically feasible, payload-type-refined sender
// set is a singleton are not branched on, and the skipped branches are
// reported as "branches pruned (static)". Every observed match is
// cross-checked against the hints at runtime; a mismatch disables pruning
// for the rest of the run and prints a warning. Local engines only
// (incompatible with -serve, -join, and -submit).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"dampi/internal/isp"
	"dampi/internal/mpilint"
	"dampi/verify"
	"dampi/workloads"
)

func main() {
	var (
		list       = flag.Bool("list", false, "list available workloads")
		name       = flag.String("workload", "", "workload to verify (see -list)")
		procs      = flag.Int("procs", 4, "number of MPI ranks")
		k          = flag.Int("k", verify.Unbounded, "bounded-mixing k (-1 = full coverage)")
		maxN       = flag.Int("max", 10000, "interleaving cap (0 = unlimited)")
		clock      = flag.String("clock", "lamport", "clock mode: lamport or vector")
		leaks      = flag.Bool("leaks", true, "run communicator/request leak checks")
		stats      = flag.Bool("stats", false, "print MPI operation statistics")
		stopErr    = flag.Bool("stop-on-error", false, "stop at the first failing interleaving")
		baseline   = flag.String("baseline", "dampi", "verifier: dampi or isp")
		decFile    = flag.String("decisions", "", "save the first error's reproducer decisions to FILE")
		traceFile  = flag.String("trace", "", "save the first run's potential-matches trace to FILE")
		replayFile = flag.String("replay", "", "replay a saved decisions FILE once instead of exploring")
		dual       = flag.Bool("dual", false, "enable the dual-Lamport-clock §V extension")
		transport  = flag.String("transport", "separate", "piggyback mechanism: separate or inband")
		autoloop   = flag.Int("autoloop", 0, "auto loop detection threshold (0 = off)")
		scale      = flag.Int("scale", 100, "traffic divisor for proxy workloads")
		iters      = flag.Int("iters", 4, "outer iterations for proxy workloads")
		workers    = flag.Int("workers", 0, "concurrent replay slots (0 and 1 = one slot on the main goroutine, errors listed in discovery order)")
		sampleStr  = flag.String("sample", "", "schedule-sampling strategy: random or pct (default: exhaustive exploration)")
		samples    = flag.Int("samples", 64, "schedules to sample (with -sample)")
		seed       = flag.Uint64("seed", 1, "sampling seed; the same seed reproduces the same schedule set (with -sample)")
		sampleDep  = flag.Int("sample-depth", 0, "explore exhaustively below this decision depth, sample beyond (with -sample)")
		choicePts  = flag.Bool("choice-points", false, "branch on Waitany/Testany completion order and Iprobe outcomes too (exhaustive engines; implied by -sample)")
		sampleDump = flag.String("sample-dump", "", "write the distinct sampled decision vectors to FILE, one per line (with -sample)")
		serve      = flag.String("serve", "", "run as distributed coordinator listening on ADDR (host:port)")
		join       = flag.String("join", "", "join the distributed coordinator at ADDR as a replay worker")
		queue      = flag.Bool("queue", false, "with -serve: run the persistent verification service (job queue + REST API) instead of a single exploration")
		storeDir   = flag.String("store", "dampi-store", "job store directory (with -serve -queue)")
		apiAddr    = flag.String("api", "", "REST API and dashboard HTTP ADDR (with -serve -queue)")
		submitURL  = flag.String("submit", "", "submit this verification as a job to the service at URL and exit")
		waitJob    = flag.Bool("wait", false, "with -submit: poll the job to completion and print its report")
		jobTTL     = flag.Duration("ttl", 0, "with -submit: fail the job if not complete within this duration (0 = none)")
		statusAddr = flag.String("status", "", "serve /status and /metrics over HTTP on ADDR (with -serve)")
		leaseTTL   = flag.Duration("lease-ttl", 0, "distributed task lease TTL (0 = default 10s; with -serve)")
		slots      = flag.Int("slots", 1, "concurrent replay slots (with -join)")
		workerName = flag.String("worker-name", "", "worker name in coordinator status (with -join; default host:pid)")
		ckpFile    = flag.String("checkpoint", "", "frontier checkpoint FILE, written periodically and at the end (see -resume)")
		ckpEvery   = flag.Int("checkpoint-every", 0, "replays between checkpoint writes (0 = one per DefaultCheckpointInterval, 250ms)")
		resume     = flag.Bool("resume", false, "resume exploration from -checkpoint")
		lintPath   = flag.String("lint", "", "run the mpilint static analyzer over Go sources at PATH first")
		prunePath  = flag.String("static-prune", "", "derive static prune hints from the workload's Go sources at PATH (local engines only)")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile of the exploration to FILE")
		memProf    = flag.String("memprofile", "", "write a heap profile to FILE at exit")
		verbose    = flag.Bool("v", false, "print each interleaving as it is explored")
	)
	flag.Parse()

	if *prunePath != "" && (*serve != "" || *join != "" || *submitURL != "") {
		fatal(fmt.Errorf("-static-prune is a local-engine feature; it cannot be combined with -serve, -join, or -submit"))
	}

	if *cpuProf != "" || *memProf != "" {
		stop, err := startProfiles(*cpuProf, *memProf)
		if err != nil {
			fatal(err)
		}
		stopProfiles = stop
	}

	if *list {
		for _, w := range workloads.All() {
			wc := " "
			if w.HasWildcards {
				wc = "*"
			}
			fmt.Printf("%s %-14s [%s] %s\n", wc, w.Name, w.Suite, w.Description)
		}
		fmt.Println("\n('*' marks workloads with wildcard non-determinism)")
		fmt.Println("(pass -lint PATH to statically analyze workload sources first; see cmd/mpilint)")
		exit(0)
	}

	var lintRep *mpilint.Report
	if *lintPath != "" {
		rep, err := mpilint.Run([]string{*lintPath}, mpilint.Options{})
		if err != nil {
			fatal(fmt.Errorf("lint: %w", err))
		}
		lintRep = rep
		for _, d := range rep.Failing() {
			fmt.Printf("lint: %s\n", d)
		}
		if len(rep.Failing()) > 0 {
			// Exploration may still run (and find more), but the process must
			// not exit 0 past error-severity findings.
			exitFloor = 1
		}
		if *name == "" {
			for _, d := range rep.Wildcards() {
				fmt.Printf("lint: %s\n", d)
			}
			for _, d := range rep.ChoicePointAudit() {
				fmt.Printf("lint: %s\n", d)
			}
			exit(0)
		}
	}

	if *queue {
		// The service needs no workload: jobs name theirs in the spec.
		if *serve == "" {
			fatal(fmt.Errorf("-queue requires -serve ADDR"))
		}
		serveQueue(*serve, *apiAddr, *storeDir, *leaseTTL, *ckpEvery, *verbose)
	}

	if *name == "" {
		flag.Usage()
		exit(2)
	}

	wl, err := workloads.Get(*name)
	if err != nil {
		fatal(err)
	}
	if *procs < wl.MinProcs {
		fatal(fmt.Errorf("%s needs at least %d procs", wl.Name, wl.MinProcs))
	}
	prog := wl.Program(workloads.Params{Procs: *procs, Scale: *scale, Iters: *iters})

	switch *baseline {
	case "isp":
		rep, err := isp.NewExplorer(isp.Config{
			Procs:            *procs,
			Program:          prog,
			MaxInterleavings: *maxN,
			StopOnFirstError: *stopErr,
		}).Explore()
		if err != nil {
			fatal(err)
		}
		// No reproducer line: ISP keys a decision by (rank, k-th wildcard),
		// not DAMPI's (rank, LC), so -replay must never be handed one.
		fmt.Printf("ISP: %s\n", rep.Summary())
		for _, e := range rep.Errors {
			fmt.Printf("  error in interleaving #%d: %v\n", e.Index, e.Err)
		}
		if rep.Errored() {
			exit(1)
		}
		exit(0)
	case "dampi":
	default:
		fatal(fmt.Errorf("unknown baseline %q (dampi or isp)", *baseline))
	}

	cm := verify.Lamport
	if *clock == "vector" {
		cm = verify.VectorClock
	} else if *clock != "lamport" {
		fatal(fmt.Errorf("unknown clock mode %q", *clock))
	}

	if *replayFile != "" {
		d, err := verify.LoadDecisions(*replayFile)
		if err != nil {
			fatal(err)
		}
		replay := verify.Replay
		if *choicePts || *sampleStr != "" {
			// Choice-point reproducers (from -choice-points or -sample runs)
			// only re-apply when the replay tracks the same epoch kinds.
			replay = verify.ReplayChoicePoints
		}
		res, err := replay(*procs, prog, d)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("replay: %v\n", res)
		if res.Err != nil {
			fmt.Printf("  error: %v\n", res.Err)
			exit(1)
		}
		exit(0)
	}

	tp := verify.Separate
	if *transport == "inband" {
		tp = verify.Inband
	} else if *transport != "separate" {
		fatal(fmt.Errorf("unknown transport %q", *transport))
	}

	if *resume && *ckpFile == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	if *serve != "" && *join != "" {
		fatal(fmt.Errorf("-serve and -join are mutually exclusive"))
	}

	var hints *verify.PruneHints
	if *prunePath != "" {
		h, notes, err := verify.StaticHints(*prunePath, *procs)
		if err != nil {
			fatal(fmt.Errorf("static-prune: %w", err))
		}
		hints = h
		if hints == nil {
			fmt.Printf("static-prune: no hints derived from %s; exploring without pruning\n", *prunePath)
		}
		if *verbose {
			for _, n := range notes {
				fmt.Printf("static-prune: %s\n", n)
			}
		}
	}

	cfg := verify.Config{
		Procs:             *procs,
		Clock:             cm,
		DualClock:         *dual,
		Transport:         tp,
		AutoLoopThreshold: *autoloop,
		MixingBound:       *k,
		MaxInterleavings:  *maxN,
		StopOnFirstError:  *stopErr,
		CheckLeaks:        *leaks,
		CollectStats:      *stats,
		Workers:           *workers,
		CheckpointFile:    *ckpFile,
		CheckpointEvery:   *ckpEvery,
		Resume:            *resume,
		PruneHints:        hints,
		ChoicePoints:      *choicePts,
	}
	if *sampleStr != "" {
		// Sampling fields are populated only in sample mode so the default
		// configuration (and its job specs and their keys) stays byte-for-
		// byte what it was without the flags.
		cfg.Mode = verify.ModeSample
		cfg.SampleStrategy = *sampleStr
		cfg.Samples = *samples
		cfg.Seed = *seed
		cfg.SampleDepth = *sampleDep
	} else if *sampleDump != "" {
		fatal(fmt.Errorf("-sample-dump requires -sample"))
	}

	if *serve != "" || *join != "" || *submitURL != "" {
		// One description of the exploration for all three: -submit posts the
		// spec -serve would announce and -join states in its handshake, the
		// workload parameters included.
		ccfg := verify.ClusterConfig{
			Config:     cfg,
			Workload:   wl.Name,
			LeaseTTL:   *leaseTTL,
			Slots:      *slots,
			WorkerName: *workerName,
			Scale:      *scale,
			Iters:      *iters,
		}
		if *submitURL != "" {
			spec, err := ccfg.JobSpec()
			if err != nil {
				fatal(err)
			}
			submitJob(*submitURL, spec, *jobTTL, *waitJob)
		}
		if *serve != "" {
			if *stats {
				fatal(fmt.Errorf("-stats is unsupported with -serve (replays happen on the workers)"))
			}
			// Leak checks instrument the canonical run, which happens on a
			// worker; the coordinator never replays.
			ccfg.CheckLeaks = false
			ccfg.Workers = 0
			ccfg.Addr = *serve
			serveCluster(ccfg, *statusAddr, *sampleDump, *verbose)
		}
		ccfg.Addr = *join
		joinCluster(ccfg, prog)
	}

	if *verbose {
		cfg.OnInterleaving = func(res *verify.InterleavingResult) {
			fmt.Printf("  %v\n", res)
		}
	}
	// Track the trailing-window throughput for the footer (and the verbose
	// progress line). The progress monitor goroutine is joined before Run
	// returns, so reading lastWindow afterwards is race-free. lastOK stays
	// false on runs too short for the window tracker to accumulate a
	// baseline, and the footer then omits the window.
	lastWindow, lastOK := 0.0, false
	cfg.OnProgress = func(p verify.Progress) {
		lastWindow, lastOK = p.WindowPerSecond, p.WindowValid
		if *verbose {
			fmt.Printf("  progress: %d interleavings (%.1f/sec window, %.1f/sec mean) frontier=%d busy=%d\n",
				p.Interleavings, p.WindowPerSecond, p.PerSecond, p.FrontierDepth, p.Busy)
		}
	}

	start := time.Now()
	res, err := verify.Run(cfg, prog)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	res.WriteHead(os.Stdout, res.Summary(), cfg.SampleDepth)
	if res.Leaks != nil {
		for _, l := range res.Leaks.CommLeaks {
			fmt.Printf("  C-leak: %s\n", l)
		}
		for _, l := range res.Leaks.RequestLeaks {
			fmt.Printf("  R-leak: %s\n", l)
		}
	}
	if lintRep != nil {
		if wc := lintRep.Wildcards(); len(wc) > 0 {
			fmt.Printf("  static wildcard audit (%d sites, %d dynamic choice points in %s):\n",
				len(wc), len(lintRep.ChoicePoints()), *lintPath)
			for _, d := range wc {
				fmt.Printf("    %s\n", d)
			}
		}
		if cp := lintRep.ChoicePointAudit(); len(cp) > 0 {
			fmt.Printf("  static schedule choice points (%d completion/poll sites in %s):\n",
				len(cp), *lintPath)
			for _, d := range cp {
				fmt.Printf("    %s\n", d)
			}
		}
	}
	if *stats && res.Stats != nil {
		t := res.Stats.Totals()
		fmt.Printf("  ops: %v (per proc: all=%d sendrecv=%d coll=%d wait=%d)\n",
			t, t.AllPerProc(), t.SendRecvPerProc(), t.CollPerProc(), t.WaitPerProc())
	}
	res.WriteErrors(os.Stdout)
	if *traceFile != "" && res.FirstTrace != nil {
		if err := res.FirstTrace.Save(*traceFile); err != nil {
			fatal(err)
		}
		fmt.Printf("  trace saved to %s (%s)\n", *traceFile, res.FirstTrace.Summary())
	}
	if *decFile != "" && len(res.Errors) > 0 {
		if err := res.Errors[0].Decisions.Save(*decFile); err != nil {
			fatal(err)
		}
		fmt.Printf("  reproducer saved to %s\n", *decFile)
	}
	finishReport(res, *sampleDump, footer(res.Interleavings, elapsed, lastWindow, lastOK))
}

// stopProfiles flushes any active profiles; every termination path must go
// through exit() so profiles survive os.Exit.
var stopProfiles func()

// exitFloor is the minimum exit code of this process: set to 1 when the
// -lint pass found error-severity diagnostics, so a clean exploration cannot
// mask a failing lint.
var exitFloor int

// startProfiles begins CPU profiling (if cpu is set) and returns a stop
// function that ends it and writes the heap profile (if mem is set).
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuF = f
	}
	return func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if mem != "" {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintf(os.Stderr, "dampi: memprofile: %v\n", err)
				return
			}
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "dampi: memprofile: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// floored raises code to the exit floor, so no success path can report 0
// past a failing lint.
func floored(code int) int {
	if code < exitFloor {
		return exitFloor
	}
	return code
}

func exit(code int) {
	if stopProfiles != nil {
		stopProfiles()
	}
	os.Exit(floored(code))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "dampi: %v\n", err)
	exit(1)
}
