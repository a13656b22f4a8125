// Benchmarks regenerating the paper's evaluation (§III): one benchmark per
// table and figure, plus ablations for the design choices DESIGN.md calls
// out. Run them all with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the figures' y-axes: interleavings for Figs. 8/9,
// slowdown for Table II, per-process op counts for Table I.
package dampi

import (
	"fmt"
	"testing"

	"dampi/internal/isp"
	"dampi/internal/trace"
	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
	"dampi/workloads/parmetis"
)

// --- Figure 5: ParMETIS proxy verification time, DAMPI vs ISP ------------

func benchParmetisNative(b *testing.B, procs int) {
	prog := parmetis.Program(parmetis.Config{Scale: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(mpi.Config{Procs: procs})
		if err := w.Run(prog); err != nil {
			b.Fatal(err)
		}
	}
}

func benchParmetisDAMPI(b *testing.B, procs int) {
	prog := parmetis.Program(parmetis.Config{Scale: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := verify.Run(verify.Config{Procs: procs, MaxInterleavings: 1}, prog)
		if err != nil {
			b.Fatal(err)
		}
		if res.Errored() {
			b.Fatal(res.Errors[0].Err)
		}
	}
}

func benchParmetisISP(b *testing.B, procs int) {
	prog := parmetis.Program(parmetis.Config{Scale: 100})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := isp.NewExplorer(isp.Config{Procs: procs, Program: prog, MaxInterleavings: 1}).Explore()
		if err != nil {
			b.Fatal(err)
		}
		if rep.Errored() {
			b.Fatal(rep.Errors[0].Err)
		}
	}
}

func BenchmarkFig5_ParMETIS(b *testing.B) {
	for _, procs := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("native/procs=%d", procs), func(b *testing.B) { benchParmetisNative(b, procs) })
		b.Run(fmt.Sprintf("dampi/procs=%d", procs), func(b *testing.B) { benchParmetisDAMPI(b, procs) })
		b.Run(fmt.Sprintf("isp/procs=%d", procs), func(b *testing.B) { benchParmetisISP(b, procs) })
	}
}

// --- Table I: ParMETIS operation statistics ------------------------------

func BenchmarkTable1_OpStats(b *testing.B) {
	for _, procs := range []int{8, 16, 32, 64, 128} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			var tot trace.Totals
			for i := 0; i < b.N; i++ {
				stats := trace.NewStats(procs)
				w := mpi.NewWorld(mpi.Config{Procs: procs, Hooks: stats.Hooks()})
				if err := w.Run(parmetis.Program(parmetis.Config{Scale: 100})); err != nil {
					b.Fatal(err)
				}
				tot = stats.Totals()
			}
			b.ReportMetric(float64(tot.AllPerProc()), "ops/proc")
			b.ReportMetric(float64(tot.SendRecvPerProc()), "sendrecv/proc")
			b.ReportMetric(float64(tot.CollPerProc()), "coll/proc")
			b.ReportMetric(float64(tot.WaitPerProc()), "wait/proc")
		})
	}
}

// --- Table II: DAMPI overhead per benchmark -------------------------------

func BenchmarkTable2_Native(b *testing.B) {
	for _, wl := range workloads.TableII() {
		b.Run(wl.Name, func(b *testing.B) {
			prog := wl.Program(workloads.Params{Procs: 64})
			for i := 0; i < b.N; i++ {
				w := mpi.NewWorld(mpi.Config{Procs: 64})
				if err := w.Run(prog); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2_DAMPI(b *testing.B) {
	for _, wl := range workloads.TableII() {
		b.Run(wl.Name, func(b *testing.B) {
			prog := wl.Program(workloads.Params{Procs: 64})
			rstar := 0
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{
					Procs: 64, MaxInterleavings: 1, CheckLeaks: true,
				}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errored() {
					b.Fatal(res.Errors[0].Err)
				}
				rstar = res.WildcardsAnalyzed
			}
			b.ReportMetric(float64(rstar), "R*")
		})
	}
}

// --- Figure 6: matmul interleaving exploration, DAMPI vs ISP --------------

func BenchmarkFig6_Matmul(b *testing.B) {
	prog := matmul.Program(matmul.Config{})
	for _, n := range []int{250, 500, 1000} {
		b.Run(fmt.Sprintf("dampi/interleavings=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{Procs: 8, MaxInterleavings: n}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errored() {
					b.Fatal(res.Errors[0].Err)
				}
			}
		})
		b.Run(fmt.Sprintf("isp/interleavings=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := isp.NewExplorer(isp.Config{Procs: 8, Program: prog, MaxInterleavings: n}).Explore()
				if err != nil {
					b.Fatal(err)
				}
				if rep.Errored() {
					b.Fatal(rep.Errors[0].Err)
				}
			}
		})
	}
}

// --- Figure 8: matmul under bounded mixing --------------------------------

func BenchmarkFig8_BoundedMixing(b *testing.B) {
	for _, procs := range []int{4, 6, 8} {
		for _, k := range []int{0, 1, 2, verify.Unbounded} {
			name := fmt.Sprintf("procs=%d/k=%d", procs, k)
			if k == verify.Unbounded {
				name = fmt.Sprintf("procs=%d/k=unbounded", procs)
			}
			b.Run(name, func(b *testing.B) {
				count := 0
				for i := 0; i < b.N; i++ {
					res, err := verify.Run(verify.Config{
						Procs: procs, MixingBound: k, MaxInterleavings: 2000,
					}, matmul.Program(matmul.Config{}))
					if err != nil {
						b.Fatal(err)
					}
					count = res.Interleavings
				}
				b.ReportMetric(float64(count), "interleavings")
			})
		}
	}
}

// --- Figure 9: ADLB under bounded mixing ----------------------------------

func BenchmarkFig9_ADLB(b *testing.B) {
	for _, procs := range []int{4, 8, 16} {
		for _, k := range []int{0, 1, 2} {
			b.Run(fmt.Sprintf("procs=%d/k=%d", procs, k), func(b *testing.B) {
				count := 0
				for i := 0; i < b.N; i++ {
					res, err := verify.Run(verify.Config{
						Procs: procs, MixingBound: k, MaxInterleavings: 2000,
					}, adlb.Program(adlb.DriverConfig{}))
					if err != nil {
						b.Fatal(err)
					}
					count = res.Interleavings
				}
				b.ReportMetric(float64(count), "interleavings")
			})
		}
	}
}

// --- Ablations -------------------------------------------------------------

// Ablation 1 (DESIGN.md): Lamport vs vector clocks — the per-run
// instrumentation cost of precision, on a wildcard-heavy workload.
func BenchmarkAblation_ClockMode(b *testing.B) {
	wl, err := workloads.Get("104.milc")
	if err != nil {
		b.Fatal(err)
	}
	for _, procs := range []int{16, 64} {
		prog := wl.Program(workloads.Params{Procs: procs})
		for _, mode := range []verify.ClockMode{verify.Lamport, verify.VectorClock} {
			b.Run(fmt.Sprintf("%v/procs=%d", mode, procs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := verify.Run(verify.Config{
						Procs: procs, Clock: mode, MaxInterleavings: 1,
					}, prog)
					if err != nil {
						b.Fatal(err)
					}
					if res.Errored() {
						b.Fatal(res.Errors[0].Err)
					}
				}
			})
		}
	}
}

// Ablation 2: the piggyback transports' cost (paper §II-D) — native run vs
// the separate-message scheme (the paper's choice) vs in-band payload
// packing, on a deterministic (zero-wildcard) program so no replays are
// involved.
func BenchmarkAblation_PiggybackOverhead(b *testing.B) {
	prog := parmetis.Program(parmetis.Config{Scale: 200})
	b.Run("native", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			w := mpi.NewWorld(mpi.Config{Procs: 16})
			if err := w.Run(prog); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, tr := range []verify.Transport{verify.Separate, verify.Inband} {
		b.Run(tr.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{
					Procs: 16, MaxInterleavings: 1, Transport: tr,
				}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errored() {
					b.Fatal(res.Errors[0].Err)
				}
			}
		})
	}
}

// Ablation 3: loop iteration abstraction — full exploration vs Pcontrol-
// marked loops on matmul.
func BenchmarkAblation_LoopAbstraction(b *testing.B) {
	for _, marked := range []bool{false, true} {
		name := "explore"
		if marked {
			name = "loop-marked"
		}
		b.Run(name, func(b *testing.B) {
			count := 0
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{
					Procs: 5, MixingBound: verify.Unbounded, MaxInterleavings: 2000,
				}, matmul.Program(matmul.Config{MarkLoop: marked}))
				if err != nil {
					b.Fatal(err)
				}
				if res.Errored() {
					b.Fatal(res.Errors[0].Err)
				}
				count = res.Interleavings
			}
			b.ReportMetric(float64(count), "interleavings")
		})
	}
}

// --- Figure 4: clock-mode coverage on the cross-coupled pattern -----------

// fig4CrossCoupled is the paper's Fig. 4 pattern (see
// internal/core.TestFig4LamportIncompleteness for the full analysis).
func fig4CrossCoupled(p *mpi.Proc) error {
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
		return p.Barrier(c)
	case 1, 2:
		if err := p.Barrier(c); err != nil {
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

// BenchmarkFig4_ClockModes reports the interleavings each clock mode covers
// on the cross-coupled pattern: Lamport misses the concurrent cross matches
// (1 interleaving); vector clocks find them (3, two of which deadlock).
func BenchmarkFig4_ClockModes(b *testing.B) {
	for _, mode := range []verify.ClockMode{verify.Lamport, verify.VectorClock} {
		b.Run(mode.String(), func(b *testing.B) {
			count, deadlocks := 0, 0
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{Procs: 4, Clock: mode}, fig4CrossCoupled)
				if err != nil {
					b.Fatal(err)
				}
				count, deadlocks = res.Interleavings, res.Deadlocks
			}
			b.ReportMetric(float64(count), "interleavings")
			b.ReportMetric(float64(deadlocks), "deadlocks-found")
		})
	}
}

// Ablation 4: the dual-clock §V extension — instrumentation cost and the
// extra coverage it buys on a pending-wildcard-heavy pattern.
func BenchmarkAblation_DualClock(b *testing.B) {
	wl, err := workloads.Get("104.milc")
	if err != nil {
		b.Fatal(err)
	}
	prog := wl.Program(workloads.Params{Procs: 16})
	for _, dual := range []bool{false, true} {
		name := "single-clock"
		if dual {
			name = "dual-clock"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := verify.Run(verify.Config{
					Procs: 16, DualClock: dual, MaxInterleavings: 1,
				}, prog)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errored() {
					b.Fatal(res.Errors[0].Err)
				}
			}
		})
	}
}
