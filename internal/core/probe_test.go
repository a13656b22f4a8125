package core

import (
	"errors"
	"testing"

	"dampi/mpi"
)

var errProbeBug = errors.New("probe picked the poisoned message")

// probeProgram: rank 0 probes with MPI_ANY_SOURCE, then receives from the
// probed source. Probing rank 2's message first triggers the bug.
func probeProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 1, 2:
		return p.Send(0, 0, mpi.EncodeInt64(int64(p.Rank())), c)
	case 0:
		for i := 0; i < 2; i++ {
			st, err := p.Probe(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			data, _, err := p.Recv(st.Source, st.Tag, c)
			if err != nil {
				return err
			}
			if i == 0 && mpi.DecodeInt64(data)[0] == 2 {
				return errProbeBug
			}
		}
	}
	return nil
}

// TestProbeNondeterminismExplored: wildcard probes are decision points; the
// explorer must reach the probe order that triggers the bug.
func TestProbeNondeterminismExplored(t *testing.T) {
	rep, err := NewExplorer(ExplorerConfig{Procs: 3, Program: probeProgram, MixingBound: Unbounded}).Explore()
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	foundBug := false
	for _, e := range rep.Errors {
		if errors.Is(e.Err, errProbeBug) {
			foundBug = true
		}
	}
	if !foundBug {
		t.Fatalf("probe bug not found in %d interleavings", rep.Interleavings)
	}
}

// TestGuidedProbeReplayDeterministic: a probe-order reproducer replays.
func TestGuidedProbeReplayDeterministic(t *testing.T) {
	rep, err := NewExplorer(ExplorerConfig{Procs: 3, Program: probeProgram, MixingBound: Unbounded}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	var repro *Decisions
	for _, e := range rep.Errors {
		if errors.Is(e.Err, errProbeBug) {
			repro = e.Decisions
		}
	}
	if repro == nil {
		t.Fatal("no reproducer")
	}
	for trial := 0; trial < 5; trial++ {
		_, res, err := ExecuteRun(&ExplorerConfig{Procs: 3, Program: probeProgram}, repro)
		if err != nil {
			t.Fatal(err)
		}
		if !errors.Is(res.Err, errProbeBug) {
			t.Fatalf("trial %d: probe replay diverged: %v", trial, res.Err)
		}
	}
}

// TestWildcardEpochsOnMultipleComms: epochs on a split communicator and the
// world communicator are tracked and explored independently.
func TestWildcardEpochsOnMultipleComms(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		world := p.CommWorld()
		sub, err := p.CommSplit(world, p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		defer p.CommFree(sub)
		// Even group: ranks 0,2,4 (local 0,1,2). Local 0 collects wildcard
		// messages on the subcomm; everyone also fans into world rank 0 on
		// the world comm.
		if p.Rank()%2 == 0 && sub.Rank() == 0 {
			for i := 1; i < sub.Size(); i++ {
				if _, _, err := p.Recv(mpi.AnySource, 5, sub); err != nil {
					return err
				}
			}
		} else if p.Rank()%2 == 0 {
			if err := p.Send(0, 5, mpi.EncodeInt64(int64(sub.Rank())), sub); err != nil {
				return err
			}
		}
		if err := p.Barrier(world); err != nil {
			return err
		}
		if p.Rank() == 0 {
			for i := 1; i < world.Size(); i++ {
				if _, _, err := p.Recv(mpi.AnySource, 9, world); err != nil {
					return err
				}
			}
			return nil
		}
		return p.Send(0, 9, mpi.EncodeInt64(int64(p.Rank())), world)
	}
	rep, err := NewExplorer(ExplorerConfig{Procs: 6, Program: prog, MixingBound: Unbounded, MaxInterleavings: 1000}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errored() {
		t.Fatalf("errors: %v (%v)", rep.Errors[0], rep.Errors[0].Err)
	}
	// Subcomm: 2 wildcard receives (2! orders); world: 5 wildcard receives
	// (5! orders): 2 * 120 = 240 interleavings.
	if rep.Interleavings != 240 {
		t.Errorf("interleavings = %d, want 2! * 5! = 240", rep.Interleavings)
	}
	if rep.WildcardsAnalyzed != 7 {
		t.Errorf("R* = %d, want 7", rep.WildcardsAnalyzed)
	}
}

// TestAnyTagWildcardEpochs: MPI_ANY_TAG on a wildcard receive matches across
// tag streams; the verifier must explore the alternates.
func TestAnyTagWildcardEpochs(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 1:
			return p.Send(0, 11, mpi.EncodeInt64(1), c)
		case 2:
			return p.Send(0, 22, mpi.EncodeInt64(2), c)
		case 0:
			for i := 0; i < 2; i++ {
				if _, _, err := p.Recv(mpi.AnySource, mpi.AnyTag, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
	rep, err := NewExplorer(ExplorerConfig{Procs: 3, Program: prog, MixingBound: Unbounded}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2 (both message orders)", rep.Interleavings)
	}
	if rep.Errored() {
		t.Errorf("errors: %v", rep.Errors)
	}
}

// TestGuidedIprobeMarksBothEpochs: with choice points, a wildcard Iprobe that
// finds a message opens two epochs — its outcome at the rank's clock and its
// source one above — and the tool asks for the source decision before the
// outcome epoch opens. Replaying a reproducer that pins both must mark both
// guided, so the rank's cursor must not pass the outcome's decision early.
func TestGuidedIprobeMarksBothEpochs(t *testing.T) {
	program := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			return p.Send(0, 0, nil, c)
		}
		for got := 0; got < 2; {
			st, found, err := p.Iprobe(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if found {
				if _, _, err := p.Recv(st.Source, st.Tag, c); err != nil {
					return err
				}
				got++
			}
		}
		return nil
	}
	cfg := &ExplorerConfig{Procs: 3, Program: program, ChoicePoints: true}
	self, res, err := ExecuteRun(cfg, nil)
	if err != nil || res.Err != nil {
		t.Fatalf("self run: %v / %v", err, res.Err)
	}
	kinds := map[EpochKind]int{}
	for _, e := range self.Epochs {
		kinds[e.Kind]++
	}
	if kinds[IprobeEpoch] != 2 || kinds[ProbeEpoch] != 2 {
		t.Fatalf("self run epochs by kind = %v, want 2 iprobe and 2 probe", kinds)
	}
	trace, again, err := ExecuteRun(cfg, res.Decisions)
	if err != nil || again.Err != nil || len(again.Mismatches) > 0 {
		t.Fatalf("replay: %v / %v, mismatches %v", err, again.Err, again.Mismatches)
	}
	for _, e := range trace.Epochs {
		if !e.Guided {
			t.Errorf("replayed epoch %v not marked guided under %s", e, res.Decisions)
		}
	}
}
