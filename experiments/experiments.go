// Package experiments regenerates every table and figure of the paper's
// evaluation (§III): Figure 5 (ParMETIS: DAMPI vs ISP), Table I (ParMETIS
// operation statistics), Table II (DAMPI overhead and local checks on the
// benchmark suite), Figure 6 (matmul: time to explore interleavings),
// Figure 8 (matmul under bounded mixing) and Figure 9 (ADLB under bounded
// mixing), and the design-choice ablations beside them. The cmd/experiments
// binary prints them: it is the one regenerator of EXPERIMENTS.md.
//
// Absolute numbers differ from the paper — the substrate is an in-process
// simulator, not an 800-node InfiniBand cluster — but each experiment
// preserves the paper's shape: who wins, how costs grow with scale, and how
// the bounding heuristics trade coverage for tractability.
package experiments

import (
	"fmt"
	"time"

	"dampi/internal/isp"
	"dampi/internal/trace"
	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
	"dampi/workloads/parmetis"
)

// Fig5Row is one point of Figure 5: wall-clock time to verify the (fully
// deterministic) ParMETIS proxy under each tool.
type Fig5Row struct {
	Procs  int
	Native time.Duration
	DAMPI  time.Duration
	ISP    time.Duration
}

// Fig5 runs the ParMETIS proxy under no tool, DAMPI, and ISP for each world
// size. ParMETIS has no wildcards, so each verification is exactly one run —
// Figure 5 measures pure instrumentation architecture overhead. workers
// selects the parallel exploration engine (0 = serial).
func Fig5(procSizes []int, scale, workers int) ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, procs := range procSizes {
		prog := parmetis.Program(parmetis.Config{Scale: scale, LeakComm: false})

		start := time.Now()
		w := mpi.NewWorld(mpi.Config{Procs: procs})
		if err := w.Run(prog); err != nil {
			return nil, fmt.Errorf("fig5 native p=%d: %w", procs, err)
		}
		native := time.Since(start)

		start = time.Now()
		res, err := verify.Run(verify.Config{Procs: procs, MaxInterleavings: 1, Workers: workers}, prog)
		if err != nil {
			return nil, fmt.Errorf("fig5 dampi p=%d: %w", procs, err)
		}
		if res.Errored() {
			return nil, fmt.Errorf("fig5 dampi p=%d: %v", procs, res.Errors[0].Err)
		}
		dampiT := time.Since(start)

		start = time.Now()
		rep, err := isp.NewExplorer(isp.Config{Procs: procs, Program: prog, MaxInterleavings: 1}).Explore()
		if err != nil {
			return nil, fmt.Errorf("fig5 isp p=%d: %w", procs, err)
		}
		if rep.Errored() {
			return nil, fmt.Errorf("fig5 isp p=%d: %v", procs, rep.Errors[0].Err)
		}
		ispT := time.Since(start)

		rows = append(rows, Fig5Row{Procs: procs, Native: native, DAMPI: dampiT, ISP: ispT})
	}
	return rows, nil
}

// Table1Row is one column of Table I: the ParMETIS proxy's MPI operation
// statistics at one world size.
type Table1Row struct {
	Procs  int
	Totals trace.Totals
	// ScaledBy is the divisor applied to the paper-calibrated counts;
	// multiply the totals back by it to compare with Table I.
	ScaledBy int
}

// Table1 measures the ParMETIS proxy's operation mix per world size.
func Table1(procSizes []int, scale int) ([]Table1Row, error) {
	var rows []Table1Row
	for _, procs := range procSizes {
		w := mpi.NewWorld(mpi.Config{Procs: procs})
		if err := w.Run(parmetis.Program(parmetis.Config{Scale: scale})); err != nil {
			return nil, fmt.Errorf("table1 p=%d: %w", procs, err)
		}
		rows = append(rows, Table1Row{Procs: procs, Totals: trace.NewStats(procs, w.Ops()).Totals(), ScaledBy: scale})
	}
	return rows, nil
}

// Table2Row is one row of Table II: DAMPI's overhead and local error checks
// on one benchmark.
type Table2Row struct {
	Name     string
	Procs    int
	Native   time.Duration
	DAMPI    time.Duration
	Slowdown float64
	RStar    int // wildcard receives/probes analyzed
	CLeak    bool
	RLeak    bool
}

// Table2 runs every Table II benchmark natively and under one DAMPI
// instrumented run, reporting slowdown, R*, and the leak checks. The paper
// uses 1024 processes; any size works here (1024 included).
func Table2(procs, iters, scale, reps int) ([]Table2Row, error) {
	if reps < 1 {
		reps = 1
	}
	var rows []Table2Row
	for _, wl := range workloads.TableII() {
		prog := wl.Program(workloads.Params{Procs: procs, Iters: iters, Scale: scale})

		native := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			w := mpi.NewWorld(mpi.Config{Procs: procs})
			if err := w.Run(prog); err != nil {
				return nil, fmt.Errorf("table2 %s native: %w", wl.Name, err)
			}
			if d := time.Since(start); d < native {
				native = d
			}
		}

		var res *verify.Result
		instr := time.Duration(1<<62 - 1)
		for r := 0; r < reps; r++ {
			start := time.Now()
			var err error
			res, err = verify.Run(verify.Config{
				Procs:            procs,
				MaxInterleavings: 1,
				CheckLeaks:       true,
			}, prog)
			if err != nil {
				return nil, fmt.Errorf("table2 %s dampi: %w", wl.Name, err)
			}
			if res.Errored() {
				return nil, fmt.Errorf("table2 %s dampi: %v", wl.Name, res.Errors[0].Err)
			}
			if d := time.Since(start); d < instr {
				instr = d
			}
		}

		rows = append(rows, Table2Row{
			Name:     wl.Name,
			Procs:    procs,
			Native:   native,
			DAMPI:    instr,
			Slowdown: float64(instr) / float64(native),
			RStar:    res.WildcardsAnalyzed,
			CLeak:    res.Leaks.HasCommLeak(),
			RLeak:    res.Leaks.HasRequestLeak(),
		})
	}
	return rows, nil
}

// Fig6Row is one point of Figure 6: time for each tool to explore a target
// number of matmul interleavings.
type Fig6Row struct {
	Interleavings int
	DAMPI         time.Duration
	ISP           time.Duration
}

// Fig6 explores matmul interleavings up to each target count under DAMPI
// and ISP, timing the whole exploration. workers selects the parallel
// exploration engine (0 = serial).
func Fig6(targets []int, procs, workers int) ([]Fig6Row, error) {
	prog := matmul.Program(matmul.Config{})
	var rows []Fig6Row
	for _, n := range targets {
		start := time.Now()
		res, err := verify.Run(verify.Config{Procs: procs, MaxInterleavings: n, Workers: workers}, prog)
		if err != nil {
			return nil, fmt.Errorf("fig6 dampi n=%d: %w", n, err)
		}
		if res.Errored() {
			return nil, fmt.Errorf("fig6 dampi n=%d: %v", n, res.Errors[0].Err)
		}
		dampiT := time.Since(start)

		start = time.Now()
		rep, err := isp.NewExplorer(isp.Config{Procs: procs, Program: prog, MaxInterleavings: n}).Explore()
		if err != nil {
			return nil, fmt.Errorf("fig6 isp n=%d: %w", n, err)
		}
		if rep.Errored() {
			return nil, fmt.Errorf("fig6 isp n=%d: %v", n, rep.Errors[0].Err)
		}
		ispT := time.Since(start)

		rows = append(rows, Fig6Row{Interleavings: n, DAMPI: dampiT, ISP: ispT})
	}
	return rows, nil
}

// MixingRow is one point of Figures 8 and 9: interleavings explored at one
// world size for one mixing bound (K = verify.Unbounded for "No Bounds").
type MixingRow struct {
	Procs         int
	K             int
	Interleavings int
	Capped        bool
}

// Fig8 counts matmul interleavings per mixing bound per world size. workers
// selects the parallel exploration engine (0 = serial).
func Fig8(procSizes, ks []int, maxInterleavings, workers int) ([]MixingRow, error) {
	var rows []MixingRow
	for _, procs := range procSizes {
		for _, k := range ks {
			res, err := verify.Run(verify.Config{
				Procs:            procs,
				MixingBound:      k,
				MaxInterleavings: maxInterleavings,
				Workers:          workers,
			}, matmul.Program(matmul.Config{}))
			if err != nil {
				return nil, fmt.Errorf("fig8 p=%d k=%d: %w", procs, k, err)
			}
			if res.Errored() {
				return nil, fmt.Errorf("fig8 p=%d k=%d: %v", procs, k, res.Errors[0].Err)
			}
			rows = append(rows, MixingRow{Procs: procs, K: k, Interleavings: res.Interleavings, Capped: res.Capped})
		}
	}
	return rows, nil
}

// Fig9 counts ADLB interleavings per mixing bound per world size. workers
// selects the parallel exploration engine (0 = serial).
func Fig9(procSizes, ks []int, maxInterleavings, workers int) ([]MixingRow, error) {
	var rows []MixingRow
	for _, procs := range procSizes {
		for _, k := range ks {
			res, err := verify.Run(verify.Config{
				Procs:            procs,
				MixingBound:      k,
				MaxInterleavings: maxInterleavings,
				Workers:          workers,
			}, adlb.Program(adlb.DriverConfig{}))
			if err != nil {
				return nil, fmt.Errorf("fig9 p=%d k=%d: %w", procs, k, err)
			}
			if res.Errored() {
				return nil, fmt.Errorf("fig9 p=%d k=%d: %v", procs, k, res.Errors[0].Err)
			}
			rows = append(rows, MixingRow{Procs: procs, K: k, Interleavings: res.Interleavings, Capped: res.Capped})
		}
	}
	return rows, nil
}

// AblationRow is one line of the ablation table: one design choice DESIGN.md
// calls out, run under one setting — what it costs (Time) and what it covers.
type AblationRow struct {
	Config        string
	Time          time.Duration
	RStar         int // wildcard epochs analyzed in the first run
	Interleavings int
	Deadlocks     int
}

// Fig4CrossCoupled is the paper's Fig. 4 pattern: ranks 0 and 3 seed ranks 1
// and 2, which then cross-send after a wildcard receive. The cross sends are
// concurrent with the other side's wildcard, which Lamport clocks cannot see
// (one interleaving) and vector clocks can (three, two of them deadlocks); see
// internal/core.TestFig4LamportIncompleteness for the full analysis.
func Fig4CrossCoupled(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0, 3:
		dest := 1
		if p.Rank() == 3 {
			dest = 2
		}
		if err := p.Send(dest, 0, []byte("seed"), c); err != nil {
			return err
		}
		return p.Barrier(c) //mpilint:ignore rankcoll -- every rank reaches the barrier; the two groups differ in what surrounds it
	case 1, 2:
		if err := p.Barrier(c); err != nil { //mpilint:ignore rankcoll -- see above
			return err
		}
		peer := 3 - p.Rank()
		if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
			return err
		}
		if err := p.Send(peer, 0, []byte("cross"), c); err != nil {
			return err
		}
		_, _, err := p.Recv(peer, 0, c)
		return err
	}
	return nil
}

// Ablations runs the design-choice ablations: clock mode, piggyback transport
// and the §V dual clock as the instrumentation cost of one milc run (the
// wildcard-heavy Table II row), each against the default configuration's; loop iteration abstraction as matmul's
// interleaving count with and without Pcontrol markers; and the coverage each
// clock mode buys on the Fig. 4 pattern. Only the last may find errors, and
// only the two deadlocks vector clocks expose.
func Ablations() ([]AblationRow, error) {
	wl, err := workloads.Get("104.milc")
	if err != nil {
		return nil, err
	}
	milc := wl.Program(workloads.Params{Procs: 32})
	var rows []AblationRow
	for _, a := range []struct {
		label     string
		cfg       verify.Config
		prog      func(p *mpi.Proc) error
		deadlocks int
	}{
		{"milc/32 lamport, separate (base)", verify.Config{Procs: 32, MaxInterleavings: 1}, milc, 0},
		{"milc/32 clock=vector", verify.Config{Procs: 32, MaxInterleavings: 1, Clock: verify.VectorClock}, milc, 0},
		{"milc/32 transport=inband", verify.Config{Procs: 32, MaxInterleavings: 1, Transport: verify.Inband}, milc, 0},
		{"milc/32 dual clock (§V)", verify.Config{Procs: 32, MaxInterleavings: 1, DualClock: true}, milc, 0},
		{"matmul/5 full exploration", verify.Config{Procs: 5, MixingBound: verify.Unbounded, MaxInterleavings: 2000}, matmul.Program(matmul.Config{}), 0},
		{"matmul/5 Pcontrol loop markers", verify.Config{Procs: 5, MixingBound: verify.Unbounded, MaxInterleavings: 2000}, matmul.Program(matmul.Config{MarkLoop: true}), 0},
		{"fig4/4 clock=lamport", verify.Config{Procs: 4, MixingBound: verify.Unbounded}, Fig4CrossCoupled, 0},
		{"fig4/4 clock=vector", verify.Config{Procs: 4, MixingBound: verify.Unbounded, Clock: verify.VectorClock}, Fig4CrossCoupled, 2},
	} {
		start := time.Now()
		res, err := verify.Run(a.cfg, a.prog)
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", a.label, err)
		}
		if len(res.Errors) != a.deadlocks || res.Deadlocks != a.deadlocks {
			return nil, fmt.Errorf("ablation %s: %s, want %d deadlocks and no other error", a.label, res.Summary(), a.deadlocks)
		}
		rows = append(rows, AblationRow{
			Config: a.label, Time: time.Since(start),
			RStar: res.WildcardsAnalyzed, Interleavings: res.Interleavings, Deadlocks: res.Deadlocks,
		})
	}
	return rows, nil
}
