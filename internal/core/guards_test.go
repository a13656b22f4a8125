package core

import (
	"fmt"
	"testing"

	"dampi/mpi"
)

// postedOrderProgram: rank 0 posts Irecv(1), then Recv(AnySource), then
// waits; ranks 1 and 2 each send once. Rank 1's message always goes to the
// earlier-posted Irecv, so the wildcard can only ever take rank 2's.
func postedOrderProgram(p *mpi.Proc) error {
	w := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte{byte(p.Rank())}, w)
	}
	req, err := p.Irecv(1, 0, w)
	if err != nil {
		return err
	}
	if _, _, err := p.Recv(mpi.AnySource, 0, w); err != nil {
		return err
	}
	_, err = p.Wait(req)
	return err
}

// otherCommProgram: rank 0 takes Recv(AnySource) on a dup of world, then
// Recv(1) on world; rank 1 sends on world and rank 2 on the dup. Rank 1's
// message travels on another communicator, so the wildcard can only ever take
// rank 2's.
func otherCommProgram(p *mpi.Proc) error {
	w := p.CommWorld()
	dup, err := p.CommDup(w)
	if err != nil {
		return err
	}
	switch p.Rank() {
	case 0:
		if _, _, err := p.Recv(mpi.AnySource, 0, dup); err != nil {
			return err
		}
		_, _, err = p.Recv(1, 0, w)
		return err
	case 1:
		return p.Send(0, 0, []byte{1}, w)
	default:
		return p.Send(0, 0, []byte{2}, dup)
	}
}

// TestLateMessageGuardsHoldNoFalseAlternate: each program has one wildcard
// receive that only one sender can ever satisfy. Dropping the posted-order
// guard (postSeq < e.postSeq) or the communicator check (e.commID != commID)
// from findPotentialMatches flips it to the other sender, whose message can
// never arrive: a second interleaving that is a false deadlock.
func TestLateMessageGuardsHoldNoFalseAlternate(t *testing.T) {
	programs := []struct {
		name    string
		program func(p *mpi.Proc) error
	}{
		{"posted-order", postedOrderProgram},
		{"other-comm", otherCommProgram},
	}
	clocks := []struct {
		name string
		cfg  ExplorerConfig
	}{
		{"lamport", ExplorerConfig{Clock: Lamport}},
		{"vector", ExplorerConfig{Clock: VectorClock}},
		{"dual", ExplorerConfig{DualClock: true}},
	}
	for _, pr := range programs {
		for _, c := range clocks {
			t.Run(pr.name+"/"+c.name, func(t *testing.T) {
				cfg := c.cfg
				cfg.Procs, cfg.Program, cfg.MixingBound = 3, pr.program, Unbounded
				rep, err := NewExplorer(cfg).Explore()
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("interleavings=%d errors=%d deadlocks=%d", rep.Interleavings, len(rep.Errors), rep.Deadlocks)
				if want := "interleavings=1 errors=0 deadlocks=0"; got != want {
					t.Errorf("%s, want %s (errors %v)", got, want, rep.Errors)
				}
			})
		}
	}
}
