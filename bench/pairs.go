package main

import (
	"fmt"
	"time"

	"dampi/internal/core"
	"dampi/mpi"
	"dampi/verify"
)

// pairRun is a batch of alternated native / instrumented single runs of one
// program: the Table II measurement. Alternating inside the batch exposes
// both sides to the same host drift.
type pairRun struct {
	native, inst []time.Duration
	checked      int
	why          []string // one line per instrumented run with a wrong verdict

	// Traced batches only: the instrumented side is the bench-assembled
	// bracketed run, which splits each rank's wall time into phases.
	phases phaseTotals
	epochs int
}

// runPairs executes n native runs (mpi.NewWorld(procs).Run) alternated with
// n instrumented single runs. Untraced, the instrumented run is
// verify.Run{MaxInterleavings: 1}; traced, it is canonicalRun with hook
// brackets, recorded as one span per run.
func runPairs(prog program, n int, tr *tracer) (pairRun, error) {
	var pr pairRun
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := mpi.NewWorld(mpi.Config{Procs: prog.procs}).Run(prog.run); err != nil {
			return pr, fmt.Errorf("native run of %s: %w", prog.name, err)
		}
		mid := time.Now()
		pr.native = append(pr.native, mid.Sub(start))

		var rstar int
		var bad string
		if tr == nil {
			res, err := verify.Run(verify.Config{Procs: prog.procs, MixingBound: verify.Unbounded, MaxInterleavings: 1}, prog.run)
			if err != nil {
				return pr, fmt.Errorf("instrumented run of %s: %w", prog.name, err)
			}
			rstar = res.WildcardsAnalyzed
			if res.Interleavings != 1 || res.Errored() {
				bad = fmt.Sprintf("interleavings=%d errors=%d, want 1 and 0", res.Interleavings, len(res.Errors))
			}
		} else {
			trace, tot, err := canonicalRun(prog, core.ToolConfig{}, true)
			if err != nil {
				return pr, err
			}
			rstar = trace.WildcardCount()
			pr.phases.addTotals(tot)
			pr.epochs += rstar
		}
		end := time.Now()
		pr.inst = append(pr.inst, end.Sub(mid))
		tr.add("instrumented-run", fmt.Sprintf("%s-%d", prog.name, i), 0, mid, end)

		pr.checked++
		if bad == "" && prog.pinned != nil && rstar != prog.pinned.RStar {
			bad = fmt.Sprintf("R*=%d, pinned %d", rstar, prog.pinned.RStar)
		}
		if bad != "" {
			pr.why = append(pr.why, fmt.Sprintf("%s single run: %s", prog.name, bad))
		}
	}
	return pr, nil
}

// slowdown is the batch's Table II number: the median instrumented run over
// the median native run. Medians, because a burst that hits a few runs of
// either side would otherwise tilt the ratio.
func (pr pairRun) slowdown() float64 {
	return median(in(time.Nanosecond, pr.inst)) / median(in(time.Nanosecond, pr.native))
}

func total(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// opsPerRun is the exact Table I operation total of one instrumented run,
// counted by trace.Stats through verify's CollectStats.
func opsPerRun(prog program) (int64, error) {
	res, err := verify.Run(verify.Config{Procs: prog.procs, MixingBound: verify.Unbounded, MaxInterleavings: 1, CollectStats: true}, prog.run)
	if err != nil {
		return 0, fmt.Errorf("counting ops of %s: %w", prog.name, err)
	}
	return res.Stats.Totals().All, nil
}
