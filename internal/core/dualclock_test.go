package core

import (
	"errors"
	"testing"

	"dampi/mpi"
)

// fig10Racy is the Fig. 10 program with the bug armed: P1 crashes on P2's
// value, which can only match if the verifier sees through the
// clock-escape-before-Wait pattern.
func fig10Racy(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		if err := p.Send(1, 0, mpi.EncodeInt64(22), c); err != nil {
			return err
		}
		return p.Barrier(c)
	case 1:
		req, err := p.Irecv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		if _, err := p.Wait(req); err != nil {
			return err
		}
		if mpi.DecodeInt64(req.Data())[0] == 33 {
			return errBug
		}
		// Drain whichever message was not matched so the run stays clean.
		_, _, err = p.Recv(mpi.AnySource, 0, c)
		return err
	case 2:
		if err := p.Barrier(c); err != nil {
			return err
		}
		return p.Send(1, 0, mpi.EncodeInt64(33), c)
	}
	return nil
}

// TestDualClockClosesFig10Omission: the single-clock algorithm misses the
// alternate match when the initial run matched P0 (the Barrier already
// propagated the advanced clock, so P2's send looks causally after);
// the dual-clock extension finds it and reaches the bug.
func TestDualClockClosesFig10Omission(t *testing.T) {
	// The initial self-run match is racy (P0 vs P2); retry until we get a
	// run where P0 matched first — the interesting direction. Dual-clock
	// coverage must find the bug from there; single-clock must not.
	for attempt := 0; attempt < 20; attempt++ {
		single := NewExplorer(ExplorerConfig{Procs: 3, Program: fig10Racy, MixingBound: Unbounded})
		singleRep, err := single.Explore()
		if err != nil {
			t.Fatalf("single Explore: %v", err)
		}
		first := singleRep.FirstTrace.Epochs[0]
		if first.Chosen != 0 {
			continue // P2 won the race natively; uninteresting direction
		}
		if singleRep.Errored() {
			t.Fatalf("single-clock mode unexpectedly found the bug: %v", singleRep.Errors)
		}
		if len(singleRep.Unsafe) == 0 {
			t.Error("single-clock mode must at least alert on the pattern")
		}

		dual := NewExplorer(ExplorerConfig{Procs: 3, Program: fig10Racy, DualClock: true, MixingBound: Unbounded})
		dualRep, err := dual.Explore()
		if err != nil {
			t.Fatalf("dual Explore: %v", err)
		}
		if !dualRep.Errored() {
			t.Fatal("dual-clock mode missed the Fig. 10 bug")
		}
		if !errors.Is(dualRep.Errors[0].Err, errBug) {
			t.Fatalf("wrong error: %v", dualRep.Errors[0].Err)
		}
		if len(dualRep.Unsafe) != 0 {
			t.Errorf("dual-clock mode should not alert (pattern handled): %v", dualRep.Unsafe)
		}
		return
	}
	t.Skip("could not provoke the P0-first initial match in 20 attempts")
}

// TestDualClockStillSoundOnFig3: the extension must not break the basic
// coverage guarantee or replay enforcement.
func TestDualClockStillSoundOnFig3(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program, DualClock: true, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 2 || len(rep.Errors) != 1 {
		t.Fatalf("interleavings=%d errors=%d, want 2/1", rep.Interleavings, len(rep.Errors))
	}
}

// TestDualClockFanInCoverage: full DFS counts match single-clock mode on a
// pattern without the omission (the extension only widens, never narrows).
func TestDualClockFanInCoverage(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 1), DualClock: true, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 6 {
		t.Errorf("interleavings = %d, want 3! = 6", rep.Interleavings)
	}
	if rep.Errored() {
		t.Errorf("errors: %v", rep.Errors)
	}
}

// relayAfterWildcard: rank 1 takes rank 0's message through a wildcard
// receive, then relays to rank 2, whose answer it takes through a second
// wildcard. Rank 2's answer is causally after the first wildcard's match, so
// it is no alternate for it: forcing that match would deadlock.
func relayAfterWildcard(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		return p.Send(1, 0, []byte("a"), c)
	case 1:
		if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
			return err
		}
		if err := p.Send(2, 0, []byte("b"), c); err != nil {
			return err
		}
		_, _, err := p.Recv(mpi.AnySource, 0, c)
		return err
	case 2:
		if _, _, err := p.Recv(1, 0, c); err != nil {
			return err
		}
		return p.Send(1, 0, []byte("c"), c)
	}
	return nil
}

// TestDualClockTransmitClockCatchesUpAtCommit: once a wildcard receive
// commits its match, the transmit clock carries the epoch's event, so a
// message sent in reply to the rank's later send is not late for the epoch.
// A transmit clock that never caught up would offer rank 2's answer as an
// alternate and explore a deadlocking flip.
func TestDualClockTransmitClockCatchesUpAtCommit(t *testing.T) {
	for _, dual := range []bool{false, true} {
		ex := NewExplorer(ExplorerConfig{Procs: 3, Program: relayAfterWildcard, DualClock: dual, MixingBound: Unbounded})
		rep, err := ex.Explore()
		if err != nil {
			t.Fatalf("dual=%v: Explore: %v", dual, err)
		}
		if rep.Interleavings != 1 || rep.Errored() {
			t.Errorf("dual=%v: interleavings=%d errors=%v, want 1 and none", dual, rep.Interleavings, rep.Errors)
		}
	}
}

// TestDualClockReplayStability: epoch identities must stay stable across
// guided replays in dual-clock mode too.
func TestDualClockReplayStability(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 2), DualClock: true})
	trace1, _, err := ex.rc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDecisions()
	for _, e := range trace1.Epochs {
		d.Force(e.ID(), e.Chosen)
	}
	_, res, err := ex.rc.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("mismatches under dual clock: %v", res.Mismatches)
	}
}
