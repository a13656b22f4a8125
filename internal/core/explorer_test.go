package core

import (
	"errors"
	"fmt"
	"testing"

	"dampi/mpi"
)

// errBug is the injected application-level error the explorer must find.
var errBug = errors.New("application bug reached")

// fig3Program is the paper's Fig. 3 example: P0 and P2 race sends into P1's
// wildcard receive; the value 33 (from P2) triggers the bug.
func fig3Program(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		return p.Send(1, 0, mpi.EncodeInt64(22), c)
	case 2:
		return p.Send(1, 0, mpi.EncodeInt64(33), c)
	case 1:
		data, _, err := p.Recv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if mpi.DecodeInt64(data)[0] == 33 {
			return errBug
		}
	}
	return nil
}

func TestFig3ReplayFindsError(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{
		Procs:       3,
		Program:     fig3Program,
		MixingBound: Unbounded,
	})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2 (both matches of the wildcard)", rep.Interleavings)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %d, want exactly 1 (the x==33 branch)", len(rep.Errors))
	}
	found := rep.Errors[0]
	if !errors.Is(found.Err, errBug) {
		t.Errorf("found error %v, want errBug", found.Err)
	}
	if found.Deadlock {
		t.Error("bug misclassified as deadlock")
	}
}

func TestFig3ReproducerReplays(t *testing.T) {
	// The decisions attached to the erroneous interleaving must reproduce
	// the bug deterministically when replayed directly.
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("setup: expected 1 error, got %d", len(rep.Errors))
	}
	repro := rep.Errors[0].Decisions
	for trial := 0; trial < 5; trial++ {
		ex2 := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program})
		_, res, err := ex2.rc.Run(repro)
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		if !errors.Is(res.Err, errBug) {
			t.Fatalf("trial %d: reproducer did not reproduce: %v", trial, res.Err)
		}
		if len(res.Mismatches) != 0 {
			t.Fatalf("trial %d: forced mismatches %v", trial, res.Mismatches)
		}
	}
}

// fig4Program is the paper's Fig. 4 cross-coupled pattern, arranged so that
// the cross matches (P1's send matching P2's wildcard and vice versa) starve
// a later deterministic receive: a real, rarely-occurring deadlock. P0 and
// P3 send before a barrier, so the initial self run deterministically takes
// the "straight" matches (P1<-P0, P2<-P3) — the cross sends arrive only
// after the wildcard receives committed.
func fig4Program(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		if err := p.Send(1, 0, []byte("p0"), c); err != nil {
			return err
		}
		return p.Barrier(c)
	case 3:
		if err := p.Send(2, 0, []byte("p3"), c); err != nil {
			return err
		}
		return p.Barrier(c)
	case 1, 2:
		if err := p.Barrier(c); err != nil {
			return err
		}
		peer := 3 - p.Rank() // 1<->2
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

func TestFig4LamportIncompleteness(t *testing.T) {
	// Lamport clocks judge the cross sends as causally after the wildcard
	// epochs (their clock is 1 > epoch 0), so DAMPI finds no alternates and
	// misses the deadlocking interleavings — the paper's known imprecision.
	lc := NewExplorer(ExplorerConfig{Procs: 4, Program: fig4Program, Clock: Lamport, MixingBound: Unbounded})
	lcRep, err := lc.Explore()
	if err != nil {
		t.Fatalf("lamport Explore: %v", err)
	}
	// Sanity: the initial run took the straight matches.
	for _, e := range lcRep.FirstTrace.Epochs {
		want := map[int]int{1: 0, 2: 3}[e.Rank]
		if e.Chosen != want {
			t.Fatalf("initial run not straight: epoch %v chose %d, want %d", e.ID(), e.Chosen, want)
		}
	}
	// Vector clocks see the cross sends as concurrent with the epochs and
	// explore the alternates, finding the deadlocks.
	vc := NewExplorer(ExplorerConfig{Procs: 4, Program: fig4Program, Clock: VectorClock, MixingBound: Unbounded})
	vcRep, err := vc.Explore()
	if err != nil {
		t.Fatalf("vector Explore: %v", err)
	}
	if lcRep.Interleavings != 1 {
		t.Errorf("lamport explored %d interleavings, want 1 (alternates missed)", lcRep.Interleavings)
	}
	if lcRep.Deadlocks != 0 {
		t.Errorf("lamport mode unexpectedly found %d deadlocks (pattern should be missed)", lcRep.Deadlocks)
	}
	if vcRep.Interleavings != 3 {
		t.Errorf("vector explored %d interleavings, want 3 (initial + both cross flips)", vcRep.Interleavings)
	}
	if vcRep.Deadlocks != 2 {
		t.Errorf("vector found %d deadlocks, want 2 (each cross match starves a receive)", vcRep.Deadlocks)
	}
}

// fig10Program is the paper's §V limitation pattern: a wildcard Irecv whose
// updated clock escapes through a Barrier before its Wait.
func fig10Program(p *mpi.Proc) error {
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
		_, err = p.Wait(req)
		return err
	case 2:
		if err := p.Barrier(c); err != nil {
			return err
		}
		return p.Send(1, 0, mpi.EncodeInt64(33), c)
	}
	return nil
}

func TestFig10UnsafePatternMonitor(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig10Program, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(rep.Unsafe) == 0 {
		t.Fatal("§V monitor did not flag the clock-escape-before-Wait pattern")
	}
	found := false
	for _, u := range rep.Unsafe {
		if u.Rank == 1 && u.Op == "Barrier" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected rank 1 Barrier alert, got %v", rep.Unsafe)
	}
}

// fanInProgram has the master receive one wildcard message per sender per
// round; rounds are separated by barriers. It is the canonical N-epochs-with-
// P-alternates state-space shape of §III-B.
func fanInProgram(procs, rounds int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.CommWorld()
		for r := 0; r < rounds; r++ {
			if p.Rank() == 0 {
				for i := 1; i < procs; i++ {
					if _, _, err := p.Recv(mpi.AnySource, r, c); err != nil {
						return err
					}
				}
			} else {
				if err := p.Send(0, r, mpi.EncodeInt64(int64(p.Rank())), c); err != nil {
					return err
				}
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
		}
		return nil
	}
}

func TestExplorationCoversFanIn(t *testing.T) {
	// 1 round, 3 senders: the master's 3 wildcard receives can see the 3
	// messages in any order: 3! = 6 interleavings under full DFS.
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 1), MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 6 {
		t.Errorf("interleavings = %d, want 3! = 6", rep.Interleavings)
	}
	if rep.Errored() {
		t.Errorf("unexpected errors: %v", rep.Errors)
	}
}

func TestBoundedMixingOrdering(t *testing.T) {
	counts := map[int]int{}
	for _, k := range []int{0, 1, 2, Unbounded} {
		ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 2), MixingBound: k})
		rep, err := ex.Explore()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		counts[k] = rep.Interleavings
	}
	t.Logf("interleavings: k=0:%d k=1:%d k=2:%d unbounded:%d",
		counts[0], counts[1], counts[2], counts[Unbounded])
	if !(counts[0] <= counts[1] && counts[1] <= counts[2] && counts[2] <= counts[Unbounded]) {
		t.Errorf("bounded mixing not monotone in k: %v", counts)
	}
	if counts[0] >= counts[Unbounded] {
		t.Errorf("k=0 (%d) should explore strictly fewer than unbounded (%d)", counts[0], counts[Unbounded])
	}
}

func TestLoopIterationAbstraction(t *testing.T) {
	// The same fan-in, but the master's receive loop is marked with
	// Pcontrol: DAMPI records the epochs but explores no alternates.
	marked := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			p.Pcontrol(PcontrolLoopLevel, LoopBegin)
			for i := 1; i < 4; i++ {
				if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
					return err
				}
			}
			p.Pcontrol(PcontrolLoopLevel, LoopEnd)
			return nil
		}
		return p.Send(0, 0, nil, c)
	}
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: marked, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 1 {
		t.Errorf("interleavings = %d, want 1 (loop abstraction suppresses exploration)", rep.Interleavings)
	}
	if rep.WildcardsAnalyzed != 3 {
		t.Errorf("R* = %d, want 3 (epochs still recorded)", rep.WildcardsAnalyzed)
	}
}

func TestMaxInterleavingsCap(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{
		Procs: 4, Program: fanInProgram(4, 3), MixingBound: Unbounded, MaxInterleavings: 5,
	})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 5 {
		t.Errorf("interleavings = %d, want cap 5", rep.Interleavings)
	}
	if !rep.Capped {
		t.Error("Capped flag not set")
	}
}

func TestStopOnFirstError(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{
		Procs: 3, Program: fig3Program, MixingBound: Unbounded, StopOnFirstError: true,
	})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if len(rep.Errors) != 1 {
		t.Fatalf("errors = %d, want 1", len(rep.Errors))
	}
	if rep.Interleavings > 2 {
		t.Errorf("explored %d interleavings after finding the bug", rep.Interleavings)
	}
}

func TestDeterministicProgramSingleInterleaving(t *testing.T) {
	// No wildcard anywhere: exactly one interleaving, zero epochs.
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return p.Send(1, 0, []byte("det"), c)
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	}
	ex := NewExplorer(ExplorerConfig{Procs: 2, Program: prog, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 1 || rep.WildcardsAnalyzed != 0 {
		t.Errorf("got %d interleavings, %d wildcards; want 1, 0",
			rep.Interleavings, rep.WildcardsAnalyzed)
	}
}

func TestDeadlockDetectedAndReportedOnce(t *testing.T) {
	// Self-run deadlock (wrong tag): reported, not explored further.
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return p.Send(1, 1, nil, c)
		}
		_, _, err := p.Recv(0, 2, c)
		return err
	}
	ex := NewExplorer(ExplorerConfig{Procs: 2, Program: prog, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Deadlocks != 1 || rep.Interleavings != 1 {
		t.Errorf("deadlocks=%d interleavings=%d, want 1, 1", rep.Deadlocks, rep.Interleavings)
	}
}

func TestWildcardProbeEpochs(t *testing.T) {
	// A wildcard Probe is a decision point too (probe non-determinism).
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			st, err := p.Probe(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if _, _, err := p.Recv(st.Source, 0, c); err != nil {
				return err
			}
			_, _, err = p.Recv(mpi.AnySource, 0, c)
			return err
		}
		return p.Send(0, 0, mpi.EncodeInt64(int64(p.Rank())), c)
	}
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: prog, MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	// Epochs: 1 wildcard probe + 1 wildcard receive per run (the
	// deterministic receive of the probed message is not an epoch).
	if rep.WildcardsAnalyzed != 2 {
		t.Errorf("R* = %d, want 2 (probe + wildcard recv)", rep.WildcardsAnalyzed)
	}
	if rep.Interleavings < 2 {
		t.Errorf("interleavings = %d, want >= 2 (probe outcome flipped)", rep.Interleavings)
	}
	if rep.Errored() {
		for _, e := range rep.Errors {
			t.Errorf("unexpected failure: %v (%v)", e, e.Err)
		}
	}
}

func TestEpochIDsStableAcrossReplays(t *testing.T) {
	// The (rank, LC) identity of the first run's epochs must reappear in a
	// guided replay (alignment is what makes the decisions file meaningful).
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 1)})
	trace1, _, err := ex.rc.Run(nil)
	if err != nil {
		t.Fatalf("run 1: %v", err)
	}
	d := NewDecisions()
	for _, e := range trace1.Epochs {
		d.Force(e.ID(), e.Chosen)
	}
	trace2, res, err := ex.rc.Run(d)
	if err != nil {
		t.Fatalf("run 2: %v", err)
	}
	if len(res.Mismatches) != 0 {
		t.Fatalf("guided replay mismatches: %v", res.Mismatches)
	}
	if len(trace2.Epochs) != len(trace1.Epochs) {
		t.Fatalf("epoch count changed: %d -> %d", len(trace1.Epochs), len(trace2.Epochs))
	}
	ids := map[EpochID]int{}
	for _, e := range trace1.Epochs {
		ids[e.ID()] = e.Chosen
	}
	for _, e := range trace2.Epochs {
		chosen, ok := ids[e.ID()]
		if !ok {
			t.Errorf("epoch %v not present in first run", e.ID())
			continue
		}
		if e.Chosen != chosen {
			t.Errorf("epoch %v matched %d, forced %d", e.ID(), e.Chosen, chosen)
		}
	}
}

func TestExplorerCountsExactForTwoRoundFanIn(t *testing.T) {
	// Regression anchor: full DFS over 2 rounds of 2 senders is (2!)^2 = 4.
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fanInProgram(3, 2), MixingBound: Unbounded})
	rep, err := ex.Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if rep.Interleavings != 4 {
		t.Errorf("interleavings = %d, want (2!)^2 = 4", rep.Interleavings)
	}
}

func TestReportString(t *testing.T) {
	res := &InterleavingResult{Index: 3, Decisions: NewDecisions(), Err: fmt.Errorf("x")}
	if res.String() == "" {
		t.Error("empty String()")
	}
}
