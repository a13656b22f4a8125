package experiments

import (
	"errors"
	"fmt"
	"testing"

	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads"
)

// TestFig5Shape: DAMPI must track native time closely while ISP must cost
// more — the paper's headline comparison. Single runs are noisy, so the
// minimum over several samples is compared.
func TestFig5Shape(t *testing.T) {
	minDAMPI := map[int]float64{}
	minISP := map[int]float64{}
	for rep := 0; rep < 3; rep++ {
		rows, err := Fig5([]int{4, 16}, 200, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			d, i := r.DAMPI.Seconds(), r.ISP.Seconds()
			if v, ok := minDAMPI[r.Procs]; !ok || d < v {
				minDAMPI[r.Procs] = d
			}
			if v, ok := minISP[r.Procs]; !ok || i < v {
				minISP[r.Procs] = i
			}
		}
	}
	for procs, d := range minDAMPI {
		if minISP[procs] <= d {
			t.Errorf("procs=%d: ISP min (%.2gs) not slower than DAMPI min (%.2gs)", procs, minISP[procs], d)
		}
	}
}

// TestTable1Shape: the proxy's per-process op mix must scale like Table I.
func TestTable1Shape(t *testing.T) {
	rows, err := Table1([]int{8, 32, 128}, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rows); i++ {
		prev, cur := rows[i-1].Totals, rows[i].Totals
		if cur.SendRecvPerProc() <= prev.SendRecvPerProc() {
			t.Errorf("sendrecv/proc not growing: %d -> %d", prev.SendRecvPerProc(), cur.SendRecvPerProc())
		}
		if cur.All <= prev.All {
			t.Errorf("total ops not growing: %d -> %d", prev.All, cur.All)
		}
	}
}

// TestTable2SmallScale: all 15 rows run; the leak and R* columns must match
// the paper's qualitative entries.
func TestTable2SmallScale(t *testing.T) {
	rows, err := Table2(8, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(rows))
	}
	want := map[string]struct {
		cleak     bool
		wildcards bool
	}{
		"ParMETIS-3.1": {true, false},
		"104.milc":     {true, true},
		"107.leslie3d": {false, false},
		"113.GemsFDTD": {true, false},
		"126.lammps":   {false, false},
		"130.socorro":  {false, false},
		"137.lu":       {true, true},
		"BT":           {true, false},
		"CG":           {false, false},
		"DT":           {false, false},
		"EP":           {false, false},
		"FT":           {true, false},
		"IS":           {false, false},
		"LU":           {false, true},
		"MG":           {false, false},
	}
	for _, r := range rows {
		w := want[r.Name]
		if r.CLeak != w.cleak {
			t.Errorf("%s: C-leak = %v, want %v", r.Name, r.CLeak, w.cleak)
		}
		if (r.RStar > 0) != w.wildcards {
			t.Errorf("%s: R* = %d, wildcards expected %v", r.Name, r.RStar, w.wildcards)
		}
		if r.RLeak {
			t.Errorf("%s: unexpected R-leak", r.Name)
		}
		if r.Slowdown <= 0 {
			t.Errorf("%s: slowdown %f", r.Name, r.Slowdown)
		}
	}
}

// TestFig8Fig9Shape: bounded mixing must be monotone in k and grow with
// world size.
func TestFig8Fig9Shape(t *testing.T) {
	rows, err := Fig8([]int{3, 4}, []int{0, 1, verify.Unbounded}, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	get := func(p, k int) int {
		for _, r := range rows {
			if r.Procs == p && r.K == k {
				return r.Interleavings
			}
		}
		t.Fatalf("missing row p=%d k=%d", p, k)
		return 0
	}
	for _, p := range []int{3, 4} {
		if !(get(p, 0) <= get(p, 1) && get(p, 1) <= get(p, verify.Unbounded)) {
			t.Errorf("p=%d: not monotone in k", p)
		}
	}
	if get(3, 0) >= get(4, 0) {
		t.Errorf("k=0 counts not growing with procs")
	}

	arows, err := Fig9([]int{4, 6}, []int{0, 1}, 500, 2)
	if err != nil {
		t.Fatal(err)
	}
	aget := func(p, k int) int {
		for _, r := range arows {
			if r.Procs == p && r.K == k {
				return r.Interleavings
			}
		}
		t.Fatalf("missing adlb row p=%d k=%d", p, k)
		return 0
	}
	if aget(4, 0) >= aget(4, 1) {
		t.Error("adlb: k=1 not above k=0")
	}
	if aget(4, 0) >= aget(6, 0) {
		t.Error("adlb: k=0 not growing with procs")
	}
}

// TestPaperScale1024 verifies one instrumented run of a Table II workload at
// the paper's 1024-process scale — "an order of magnitude larger than any
// previously reported results for MPI dynamic verification tools".
func TestPaperScale1024(t *testing.T) {
	if testing.Short() {
		t.Skip("1024-rank verification")
	}
	wl, err := workloads.Get("104.milc")
	if err != nil {
		t.Fatal(err)
	}
	res, err := verify.Run(verify.Config{
		Procs:            1024,
		MaxInterleavings: 1,
		CheckLeaks:       true,
	}, wl.Program(workloads.Params{Procs: 1024, Iters: 2, Scale: 4}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Errored() {
		t.Fatalf("milc at 1024: %v", res.Errors[0].Err)
	}
	// Table II: R* = 51K at 1024 procs (~50/rank; Iters=2 halves the default).
	if res.WildcardsAnalyzed < 20000 {
		t.Errorf("R* = %d at 1024 procs, want tens of thousands", res.WildcardsAnalyzed)
	}
	if !res.Leaks.HasCommLeak() {
		t.Error("milc C-leak missed at scale")
	}
}

// TestAblationsShape: every ablation row runs, and each design choice shows
// what DESIGN.md says it buys — clock mode and transport leave R* alone, loop
// markers shrink matmul's space, and on the Fig. 4 pattern Lamport clocks
// cover one interleaving where vector clocks find three, two of them
// deadlocks (Ablations itself fails on any other error).
func TestAblationsShape(t *testing.T) {
	rows, err := Ablations()
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]AblationRow{}
	for _, r := range rows {
		by[r.Config] = r
	}
	if len(by) != 8 {
		t.Fatalf("%d distinct rows, want 8: %+v", len(by), rows)
	}
	base := by["milc/32 lamport, separate (base)"]
	if base.RStar == 0 {
		t.Errorf("milc has no wildcards: %+v", base)
	}
	for _, cfg := range []string{"milc/32 clock=vector", "milc/32 transport=inband", "milc/32 dual clock (§V)"} {
		if by[cfg].RStar != base.RStar {
			t.Errorf("%s: R* = %d, the baseline's is %d", cfg, by[cfg].RStar, base.RStar)
		}
	}
	if full, marked := by["matmul/5 full exploration"], by["matmul/5 Pcontrol loop markers"]; marked.Interleavings >= full.Interleavings {
		t.Errorf("loop markers explore %d interleavings, full exploration %d", marked.Interleavings, full.Interleavings)
	}
	if lc, vc := by["fig4/4 clock=lamport"], by["fig4/4 clock=vector"]; lc.Interleavings != 1 || vc.Interleavings != 3 || vc.Deadlocks != 2 {
		t.Errorf("Fig. 4 coverage: lamport %+v, vector %+v; want 1 interleaving against 3 with 2 deadlocks", lc, vc)
	}
}

// TestFig4DeadlockReportsGolden: under vector clocks the Fig. 4 pattern has
// two deadlocking interleavings; with a fixed schedule each is found at the
// same index, under the same decisions, with the same ranks stuck in the same
// calls. (Re-pinned: the two reports swapped places when the self run began
// to take the uninstrumented program's schedule — the tool no longer opens a
// run with a collective CommDup — so the DFS meets the two flips in the other
// order. Same two decisions, same stuck calls.)
func TestFig4DeadlockReportsGolden(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 4, MixingBound: verify.Unbounded, Clock: verify.VectorClock}, Fig4CrossCoupled)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for _, e := range res.Errors {
		var dl *mpi.DeadlockError
		if !errors.As(e.Err, &dl) {
			t.Fatalf("interleaving #%d: %v, want a deadlock", e.Index, e.Err)
		}
		got += fmt.Sprintf("#%d %v\n%s", e.Index, e.Decisions, dl.Detail())
	}
	const want = `#1 {r1:[0→0] r2:[0→1]}
rank 2: Wait(recv peer=1 tag=0 Comm(world#0 rank 2/4))
#2 {r1:[0→2] r2:[0→3]}
rank 1: Wait(recv peer=2 tag=0 Comm(world#0 rank 1/4))
`
	if got != want {
		t.Errorf("deadlock reports:\n%s\nwant:\n%s", got, want)
	}
}
