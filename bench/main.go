// Command bench is the verifier's performance ledger: six end-to-end
// workloads, each a fixed verification job repeated in a fresh process and
// checked against a pinned known answer, plus a traced pass that says where
// one replay's time goes, layer by layer. README.md has the tables.
//
//	go run ./bench -workload explore-serial            # one workload, timed pass
//	go run ./bench -workload explore-serial -trace 1   # its traced per-layer pass
//	go run ./bench                                     # all six, one process each
//	go run ./bench -check                              # the pinned table, untimed
//	go run ./bench -compare A.json B.json              # apply the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics. The exit status is 1 on a wrong verdict, 2 on a harness
// error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// watchdog bounds one workload's process: a hung cluster or service must
// become an error exit, not a stuck benchmark.
const watchdog = 170 * time.Second

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName = flag.String("workload", "all", "workload to run, or all (one fresh process each)")
		seedFlag     = flag.Int64("seed", 1, "seed for generated inputs: service submission order, sampler seed")
		seconds      = flag.Float64("seconds", 10, "how long to measure after set-up")
		trace        = flag.Int("trace", 0, "1 selects the traced per-layer pass")
		check        = flag.Bool("check", false, "run the pinned known-answer table, untimed")
		cmp          = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		outPath      = flag.String("out", "", "result file (default bench/out/result-<workload>[-trace].json)")
	)
	flag.Parse()

	if *cmp {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		clean, err := compare(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if !clean {
			return 1
		}
		return 0
	}

	seed := uint64(*seedFlag)
	h, err := newHarness(seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	defer h.cleanup()
	// An interrupt still removes the temp stores. With -workload all the
	// work is in a child process: cancelling kills it and runAll returns.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		if *check || *workloadName != "all" {
			h.cleanup()
			os.Exit(130)
		}
	}()

	led := &ledger{Host: h.host, Seed: seed, Seconds: *seconds}
	path := *outPath
	if path == "" {
		name := "result-" + *workloadName
		if *check {
			name = "result-check"
		} else if *trace == 1 {
			name += "-trace"
		}
		path = filepath.Join(h.out, name+".json")
	}
	switch {
	case *check:
		time.AfterFunc(watchdog, func() { h.abort("-check") })
		res, err := runCheck(h)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		led.Results = []*result{res}
		printResult(h, res, "the pinned known-answer table, untimed", nil)
	case *workloadName == "all":
		if err := runAll(ctx, led, *trace, path); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	default:
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		time.AfterFunc(watchdog, func() { h.abort(w.Name) })
		pass, what, defs := runTimed, "timed pass, tracing off", endToEnd
		if *trace == 1 {
			pass, what, defs = runTraced, "traced per-layer pass", perLayer
		}
		res, err := pass(h, w, *seconds, 1)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		led.Results = []*result{res}
		printResult(h, res, what, defs)
	}
	return finish(led, path)
}

// abort is the watchdog's exit: temp stores are removed even here.
func (h *harness) abort(what string) {
	fmt.Fprintf(os.Stderr, "bench: %s did not finish within %v\n", what, watchdog)
	h.cleanup()
	os.Exit(2)
}

// printResult prints every metric by name with its unit, the verdict
// tally, and each wrong verdict.
func printResult(h *harness, res *result, pass string, defs []metricDef) {
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d W=%d %s %q\n", h.host.NProc, h.host.GOMAXPROCS, h.host.Workers, h.host.GoVersion, h.host.CPUModel)
	fmt.Printf("%s: %s, seed %d, %d repetitions\n", res.Workload, pass, h.seed, res.Reps)
	for _, def := range defs {
		d := res.Metrics[def.Name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s", def.Name, d.Value, def.Unit)
		if d.N > 1 {
			line += fmt.Sprintf(" q1 %.4f median %.4f q3 %.4f n=%d", d.Q1, d.Median, d.Q3, d.N)
		}
		if def.Moves != "" {
			line += " -> " + def.Moves
		}
		fmt.Println(line)
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  %-34s %14.4f %-6s %d of %d verifications\n", "failed_share", share, "share", res.Failed, res.Attempted)
	for _, why := range res.Why {
		fmt.Println("  WRONG VERDICT:", why)
	}
}

// finish writes the result file and prints the contract's last line.
func finish(led *ledger, path string) int {
	if err := led.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}
	units := map[string]string{}
	for _, def := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[def.Name] = def.Unit
	}
	for _, res := range led.Results {
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		if len(led.Results) == 1 {
			for name, d := range res.Metrics {
				last.Metrics[name] = value{d.Value, units[name]}
			}
		}
	}
	last.Correct = last.Failed == 0
	line, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !last.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a fresh process of this binary, one after
// the other, and gathers their result files into one ledger.
func runAll(ctx context.Context, led *ledger, trace int, path string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	for _, wd := range workloadDefs {
		part := path + "." + wd.Name
		cmd := exec.CommandContext(ctx, self,
			"-workload", wd.Name, "-seed", fmt.Sprint(led.Seed), "-seconds", fmt.Sprint(led.Seconds),
			"-trace", fmt.Sprint(trace), "-out", part)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		runErr := cmd.Run()
		sub, err := readLedger(part)
		os.Remove(part)
		if err != nil {
			if runErr != nil {
				return fmt.Errorf("%s: %w", wd.Name, runErr)
			}
			return err
		}
		led.Results = append(led.Results, sub.Results...)
		fmt.Println()
	}
	return nil
}
