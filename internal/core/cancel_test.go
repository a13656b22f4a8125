package core

import (
	"testing"

	"dampi/mpi"
)

// TestCancelledWildcardUnderDAMPI: a cancelled wildcard receive retires its
// epoch cleanly — no piggyback desync, no phantom decision point.
func TestCancelledWildcardUnderDAMPI(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Irecv(mpi.AnySource, 9, c)
			if err != nil {
				return err
			}
			if _, err := p.Cancel(req); err != nil {
				return err
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
			// Real traffic still flows correctly after the cancel.
			_, _, err = p.Recv(1, 0, c)
			return err
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		if p.Rank() == 1 {
			return p.Send(0, 0, []byte("after-cancel"), c)
		}
		return nil
	}
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: prog, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Errored() {
		t.Fatalf("errors: %v (%v)", rep.Errors[0], rep.Errors[0].Err)
	}
	if rep.Interleavings != 1 {
		t.Errorf("interleavings = %d, want 1 (cancelled epoch has no match to flip)", rep.Interleavings)
	}
	// The epoch was posted and withdrawn: it appears in the trace with no
	// chosen source.
	if rep.WildcardsAnalyzed != 1 {
		t.Errorf("R* = %d, want 1", rep.WildcardsAnalyzed)
	}
	if got := rep.FirstTrace.Epochs[0].Chosen; got != -1 {
		t.Errorf("cancelled epoch chosen = %d, want -1", got)
	}
}

// TestCancelledDeterministicUnderDAMPI: cancelling a deterministic receive
// must also cancel (or drain) its paired piggyback receive, keeping the
// clock stream aligned for later traffic from the same peer.
func TestCancelledDeterministicUnderDAMPI(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Irecv(1, 7, c)
			if err != nil {
				return err
			}
			if _, err := p.Cancel(req); err != nil {
				return err
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
			// The peer now sends on the same (src, tag): the piggyback
			// pairing must still line up.
			data, _, err := p.Recv(1, 7, c)
			if err != nil {
				return err
			}
			if string(data) != "aligned" {
				t.Errorf("got %q", data)
			}
			return nil
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		if p.Rank() == 1 {
			return p.Send(0, 7, []byte("aligned"), c)
		}
		return nil
	}
	ex := NewExplorer(ExplorerConfig{Procs: 2, Program: prog})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Errored() {
		t.Fatalf("errors: %v (%v)", rep.Errors[0], rep.Errors[0].Err)
	}
}
