// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§III) and prints them as text tables.
//
// Usage:
//
//	experiments -all
//	experiments -fig5 -fig6
//	experiments -table2 -procs 1024
//
// Scaled-down defaults keep every experiment in the seconds range; raise
// -procs / lower -scale to push toward paper magnitudes.
package main

import (
	"flag"
	"fmt"
	"os"

	"dampi/experiments"
	"dampi/verify"
)

func main() {
	var (
		all    = flag.Bool("all", false, "run every experiment")
		fig5   = flag.Bool("fig5", false, "Figure 5: ParMETIS verification time, DAMPI vs ISP")
		table1 = flag.Bool("table1", false, "Table I: ParMETIS MPI operation statistics")
		table2 = flag.Bool("table2", false, "Table II: DAMPI overhead on the benchmark suite")
		fig6   = flag.Bool("fig6", false, "Figure 6: matmul interleaving exploration time, DAMPI vs ISP")
		fig8   = flag.Bool("fig8", false, "Figure 8: matmul under bounded mixing")
		fig9   = flag.Bool("fig9", false, "Figure 9: ADLB under bounded mixing")
		ablate = flag.Bool("ablations", false, "ablations: clock modes, piggyback transports, dual clock, loop abstraction, Fig. 4 coverage")

		procs   = flag.Int("procs", 0, "override world size (Table II; paper uses 1024)")
		scale   = flag.Int("scale", 100, "traffic divisor for the ParMETIS proxy")
		iters   = flag.Int("iters", 4, "outer iterations for Table II proxies")
		capN    = flag.Int("cap", 2000, "interleaving cap for Figures 8/9")
		reps    = flag.Int("reps", 3, "timing repetitions (min taken) for Table II")
		workers = flag.Int("workers", 0, "parallel replay workers for exploration experiments (0 = serial)")
	)
	flag.Parse()
	if !(*all || *fig5 || *table1 || *table2 || *fig6 || *fig8 || *fig9 || *ablate) {
		flag.Usage()
		os.Exit(2)
	}

	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed: %v\n", name, err)
			os.Exit(1)
		}
	}

	if *all || *fig5 {
		run("fig5", func() error { return printFig5(*scale, *workers) })
	}
	if *all || *table1 {
		run("table1", func() error { return printTable1(*scale) })
	}
	if *all || *table2 {
		p := *procs
		if p == 0 {
			p = 64 // default keeps the full suite in seconds; -procs 1024 matches the paper
		}
		run("table2", func() error { return printTable2(p, *iters, *reps) })
	}
	if *all || *fig6 {
		run("fig6", func() error { return printFig6(*workers) })
	}
	if *all || *fig8 {
		run("fig8", func() error { return printFig8(*capN, *workers) })
	}
	if *all || *fig9 {
		run("fig9", func() error { return printFig9(*capN, *workers) })
	}
	if *all || *ablate {
		run("ablations", printAblations)
	}
}

func printAblations() error {
	fmt.Println("## Ablations — clock mode, piggyback transport, dual clock, loop abstraction, Fig. 4 coverage")
	fmt.Println()
	rows, err := experiments.Ablations()
	if err != nil {
		return err
	}
	fmt.Printf("%-34s %12s %6s %14s %10s\n", "configuration", "time", "R*", "interleavings", "deadlocks")
	for _, r := range rows {
		fmt.Printf("%-34s %12v %6d %14d %10d\n", r.Config, r.Time.Round(10e3), r.RStar, r.Interleavings, r.Deadlocks)
	}
	fmt.Println()
	return nil
}

func printFig5(scale, workers int) error {
	fmt.Printf("## Figure 5 — ParMETIS-3.1 proxy: verification time, DAMPI vs ISP (traffic /%d)\n\n", scale)
	rows, err := experiments.Fig5([]int{4, 8, 12, 16, 20, 24, 28, 32}, scale, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%6s %12s %12s %12s %10s %10s\n", "procs", "native", "DAMPI", "ISP", "DAMPI/nat", "ISP/nat")
	for _, r := range rows {
		fmt.Printf("%6d %12v %12v %12v %10.2fx %10.2fx\n",
			r.Procs, r.Native.Round(10e3), r.DAMPI.Round(10e3), r.ISP.Round(10e3),
			float64(r.DAMPI)/float64(r.Native), float64(r.ISP)/float64(r.Native))
	}
	fmt.Println()
	return nil
}

func printTable1(scale int) error {
	fmt.Printf("## Table I — ParMETIS proxy MPI operation statistics (counts ×%d to compare with the paper)\n\n", scale)
	rows, err := experiments.Table1([]int{8, 16, 32, 64, 128}, scale)
	if err != nil {
		return err
	}
	fmt.Printf("%-22s", "MPI Operation Type")
	for _, r := range rows {
		fmt.Printf(" %10s", fmt.Sprintf("procs=%d", r.Procs))
	}
	fmt.Println()
	line := func(name string, f func(experiments.Table1Row) int64) {
		fmt.Printf("%-22s", name)
		for _, r := range rows {
			fmt.Printf(" %10d", f(r))
		}
		fmt.Println()
	}
	line("All", func(r experiments.Table1Row) int64 { return r.Totals.All })
	line("All per proc", func(r experiments.Table1Row) int64 { return r.Totals.AllPerProc() })
	line("Send-Recv", func(r experiments.Table1Row) int64 { return r.Totals.SendRecv })
	line("Send-Recv per proc", func(r experiments.Table1Row) int64 { return r.Totals.SendRecvPerProc() })
	line("Collective", func(r experiments.Table1Row) int64 { return r.Totals.Coll })
	line("Collective per proc", func(r experiments.Table1Row) int64 { return r.Totals.CollPerProc() })
	line("Wait", func(r experiments.Table1Row) int64 { return r.Totals.Wait })
	line("Wait per proc", func(r experiments.Table1Row) int64 { return r.Totals.WaitPerProc() })
	fmt.Println()
	return nil
}

func printTable2(procs, iters, reps int) error {
	fmt.Printf("## Table II — DAMPI overhead: benchmark suite at %d procs\n\n", procs)
	rows, err := experiments.Table2(procs, iters, 1, reps)
	if err != nil {
		return err
	}
	fmt.Printf("%-14s %10s %12s %12s %8s %7s %7s\n",
		"Program", "Slowdown", "native", "DAMPI", "R*", "C-Leak", "R-Leak")
	for _, r := range rows {
		fmt.Printf("%-14s %9.2fx %12v %12v %8d %7s %7s\n",
			r.Name, r.Slowdown, r.Native.Round(10e3), r.DAMPI.Round(10e3),
			r.RStar, yn(r.CLeak), yn(r.RLeak))
	}
	fmt.Println()
	return nil
}

func printFig6(workers int) error {
	fmt.Println("## Figure 6 — matmul: time to explore interleavings, DAMPI vs ISP (8 procs)")
	fmt.Println()
	rows, err := experiments.Fig6([]int{250, 500, 750, 1000}, 8, workers)
	if err != nil {
		return err
	}
	fmt.Printf("%14s %12s %12s %8s\n", "interleavings", "DAMPI", "ISP", "ISP/DAMPI")
	for _, r := range rows {
		fmt.Printf("%14d %12v %12v %7.1fx\n",
			r.Interleavings, r.DAMPI.Round(10e3), r.ISP.Round(10e3),
			float64(r.ISP)/float64(r.DAMPI))
	}
	fmt.Println()
	return nil
}

func printFig8(capN, workers int) error {
	fmt.Printf("## Figure 8 — matmul with bounded mixing: interleavings by k (cap %d)\n\n", capN)
	rows, err := experiments.Fig8([]int{2, 3, 4, 5, 6, 7, 8}, []int{0, 1, 2, verify.Unbounded}, capN, workers)
	if err != nil {
		return err
	}
	return printMixing(rows, []int{0, 1, 2, verify.Unbounded})
}

func printFig9(capN, workers int) error {
	fmt.Printf("## Figure 9 — ADLB with bounded mixing: interleavings by k (cap %d)\n\n", capN)
	rows, err := experiments.Fig9([]int{4, 8, 12, 16, 20, 24, 28, 32}, []int{0, 1, 2}, capN, workers)
	if err != nil {
		return err
	}
	return printMixing(rows, []int{0, 1, 2})
}

func printMixing(rows []experiments.MixingRow, ks []int) error {
	byPK := map[[2]int]experiments.MixingRow{}
	var procs []int
	seen := map[int]bool{}
	for _, r := range rows {
		byPK[[2]int{r.Procs, r.K}] = r
		if !seen[r.Procs] {
			seen[r.Procs] = true
			procs = append(procs, r.Procs)
		}
	}
	fmt.Printf("%6s", "procs")
	for _, k := range ks {
		if k == verify.Unbounded {
			fmt.Printf(" %12s", "no bounds")
		} else {
			fmt.Printf(" %12s", fmt.Sprintf("k=%d", k))
		}
	}
	fmt.Println()
	for _, p := range procs {
		fmt.Printf("%6d", p)
		for _, k := range ks {
			r := byPK[[2]int{p, k}]
			cell := fmt.Sprintf("%d", r.Interleavings)
			if r.Capped {
				cell += "+"
			}
			fmt.Printf(" %12s", cell)
		}
		fmt.Println()
	}
	fmt.Println("('+' marks runs stopped at the interleaving cap)")
	fmt.Println()
	return nil
}

func yn(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}
