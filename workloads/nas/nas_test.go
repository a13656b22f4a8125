package nas

import (
	"sync/atomic"
	"testing"

	"dampi/internal/trace"
	"dampi/mpi"
)

var kernels = map[string]func(Config) func(*mpi.Proc) error{
	"BT": BT, "CG": CG, "DT": DT, "EP": EP, "FT": FT, "IS": IS, "LU": LU, "MG": MG,
}

func TestKernelsRunAtVariousScales(t *testing.T) {
	for name, k := range kernels {
		t.Run(name, func(t *testing.T) {
			for _, procs := range []int{2, 4, 7, 16} {
				w := mpi.NewWorld(mpi.Config{Procs: procs})
				if err := w.Run(k(Config{Iters: 2})); err != nil {
					t.Fatalf("%s at %d procs: %v", name, procs, err)
				}
			}
		})
	}
}

func TestEPIsAlmostCommunicationFree(t *testing.T) {
	// DT and EP are the paper's ~1.0x-slowdown rows: tiny op counts.
	w := mpi.NewWorld(mpi.Config{Procs: 8})
	if err := w.Run(EP(Config{Iters: 4})); err != nil {
		t.Fatal(err)
	}
	if got := trace.NewStats(8, w.Ops()).Totals().AllPerProc(); got > 4 {
		t.Errorf("EP ops/proc = %d, want <= 4", got)
	}
}

func TestFTIsAlltoallDominated(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Procs: 8})
	if err := w.Run(FT(Config{Iters: 2})); err != nil {
		t.Fatal(err)
	}
	tot := trace.NewStats(8, w.Ops()).Totals()
	if tot.Coll <= tot.SendRecv {
		t.Errorf("FT should be collective-dominated: coll=%d sendrecv=%d", tot.Coll, tot.SendRecv)
	}
}

func TestLUHasOneWildcardSweep(t *testing.T) {
	// Count wildcard receives via a recording hook: ~1 per non-root rank.
	var wildcards atomic.Int64
	hooks := &mpi.Hooks{
		PostRecv: func(p *mpi.Proc, op *mpi.RecvOp, r *mpi.Request) {
			if op.WasAnySource {
				wildcards.Add(1)
			}
		},
	}
	w := mpi.NewWorld(mpi.Config{Procs: 8, Hooks: hooks})
	if err := w.Run(LU(Config{Iters: 3})); err != nil {
		t.Fatal(err)
	}
	if got := wildcards.Load(); got != 7 {
		t.Errorf("LU wildcards = %d, want procs-1 = 7", got)
	}
}
