package main

import (
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dampi/mpi"
	"dampi/verify"
)

// serveCluster runs the coordinator side of a distributed verification:
// listen on cfg.Addr, lease subtree tasks to joining workers (dampid, or
// dampi -join), merge their results, and print the same report a local run
// would print. SIGINT/SIGTERM drain gracefully: no new tasks are leased,
// in-flight results are merged, a final checkpoint is written (when
// -checkpoint is set) and the partial report is printed.
func serveCluster(cfg verify.ClusterConfig, statusAddr, sampleDump string, verbose bool) {
	lastWindow, lastOK := 0.0, false
	cfg.OnProgress = func(p verify.Progress) {
		lastWindow, lastOK = p.WindowPerSecond, p.WindowValid
		if verbose {
			fmt.Printf("  progress: %d interleavings (%.1f/sec window, %.1f/sec mean) frontier=%d leased=%d\n",
				p.Interleavings, p.WindowPerSecond, p.PerSecond, p.FrontierDepth, p.Busy)
		}
	}
	c, err := verify.Serve(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("coordinating %q on %s (procs=%d, workers join with: dampid -join %s)\n",
		cfg.Workload, c.Addr(), cfg.Procs, c.Addr())
	if statusAddr != "" {
		go func() {
			if err := http.ListenAndServe(statusAddr, c.StatusHandler()); err != nil {
				fmt.Fprintf(os.Stderr, "dampi: status endpoint: %v\n", err)
			}
		}()
		fmt.Printf("status on http://%s/status (Prometheus metrics on /metrics)\n", statusAddr)
	}
	drainOnSignal("cluster (in-flight replays will be merged)", c.Stop)

	start := time.Now()
	res, err := c.Wait()
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	res.WriteHead(os.Stdout, res.Summary(), cfg.SampleDepth)
	res.WriteErrors(os.Stdout)
	finishReport(res, sampleDump, footer(res.Interleavings, elapsed, lastWindow, lastOK))
}

// joinCluster runs the worker side: connect to the coordinator at cfg.Addr
// and replay leased subtrees until the exploration is done. SIGINT/SIGTERM
// drain gracefully: in-flight replays finish and deliver their results
// before the worker exits.
func joinCluster(cfg verify.ClusterConfig, prog func(p *mpi.Proc) error) {
	cfg.OnEvent = func(line string) { fmt.Println(line) }
	w, err := verify.Join(cfg, prog)
	if err != nil {
		fatal(err)
	}
	drainOnSignal("(in-flight replays will finish)", w.Stop)
	if err := w.Run(); err != nil {
		fatal(err)
	}
	exit(0)
}

// drainOnSignal calls stop on the first SIGINT or SIGTERM; a second signal
// kills outright.
func drainOnSignal(what string, stop func()) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		signal.Stop(sig)
		fmt.Fprintf(os.Stderr, "dampi: %v: draining %s\n", s, what)
		stop()
	}()
}
