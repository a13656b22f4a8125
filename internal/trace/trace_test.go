package trace

import (
	"testing"

	"dampi/mpi"
)

// run executes program natively and tallies what the world counted.
func run(t *testing.T, procs int, program func(p *mpi.Proc) error) Totals {
	t.Helper()
	w := mpi.NewWorld(mpi.Config{Procs: procs})
	if err := w.Run(program); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return NewStats(procs, w.Ops()).Totals()
}

func TestCategoriesCounted(t *testing.T) {
	var r0 mpi.OpCounts
	tot := run(t, 2, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			// 1 blocking send (Send-Recv, no Wait), 1 Isend + Wait.
			if err := p.Send(1, 0, []byte("a"), c); err != nil {
				return err
			}
			req, err := p.Isend(1, 1, []byte("b"), c)
			if err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
			r0 = p.World().Ops() // rank 0 holds the turn until the barrier: its own calls
		} else {
			if _, _, err := p.Recv(0, 0, c); err != nil {
				return err
			}
			req, err := p.Irecv(0, 1, c)
			if err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
		}
		return p.Barrier(c)
	})
	// 2 sends + 2 recvs = 4 Send-Recv; 2 Waits; 2 Barriers.
	if tot.SendRecv != 4 {
		t.Errorf("SendRecv = %d, want 4", tot.SendRecv)
	}
	if tot.Wait != 2 {
		t.Errorf("Wait = %d, want 2 (blocking ops must not count waits)", tot.Wait)
	}
	if tot.Coll != 2 {
		t.Errorf("Coll = %d, want 2", tot.Coll)
	}
	if tot.All != 8 {
		t.Errorf("All = %d, want 8", tot.All)
	}
	if want := (mpi.OpCounts{SendRecv: 2, Wait: 1}); r0 != want {
		t.Errorf("rank 0's counts before its barrier = %+v, want %+v", r0, want)
	}
	if tot.AllPerProc() != 4 || tot.SendRecvPerProc() != 2 || tot.CollPerProc() != 1 || tot.WaitPerProc() != 1 {
		t.Errorf("per-proc helpers wrong: %+v", tot)
	}
}

func TestProbesCountAsSendRecv(t *testing.T) {
	tot := run(t, 2, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return p.Send(1, 0, []byte("x"), c)
		}
		if _, err := p.Probe(0, 0, c); err != nil {
			return err
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
	// send + probe + recv.
	if got := tot.SendRecv; got != 3 {
		t.Errorf("SendRecv = %d, want 3", got)
	}
}

func TestStringers(t *testing.T) {
	tot := NewStats(1, mpi.OpCounts{SendRecv: 1, Coll: 2, Wait: 3}).Totals()
	if got, want := tot.String(), "ops{procs=1 all=6 sendrecv=1 coll=2 wait=3}"; got != want {
		t.Fatalf("Totals string %q, want %q", got, want)
	}
}
