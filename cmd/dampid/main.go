// Command dampid is the any-workload worker daemon of a distributed
// exploration: it joins a coordinator — a one-shot `dampi -serve` or a
// verification service (`dampi -serve -queue`) alike — and builds the program
// of each announced job from the workload registry, under the job spec's
// parameters and exploration flags, so it takes none of its own.
//
// Usage:
//
//	dampid -join host:9477 [-slots 8] [-name w1]
//
// A worker pinned to one workload (it states the exploration it was built for
// in its handshake, and a one-shot coordinator refuses a mismatch by name) is
// `dampi -join host:9477 -workload matmul -procs 6 ...`.
//
// SIGTERM (and SIGINT) drain gracefully: in-flight replays finish and deliver
// their results before the worker exits. If the coordinator disappears, the
// worker reconnects with exponential backoff and gives up after 30 failures.
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
	join := flag.String("join", "", "coordinator address (host:port); required")
	slots := flag.Int("slots", 1, "concurrent replay slots")
	name := flag.String("name", "", "worker name in coordinator status (default host:pid)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: dampid -join ADDR [-slots N] [-name NAME]   (pinned to one workload: dampi -join ADDR -workload ...)")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *join == "" {
		flag.Usage()
		os.Exit(2)
	}

	w, err := verify.JoinQueue(verify.ClusterConfig{
		Addr:       *join,
		Slots:      *slots,
		WorkerName: *name,
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
