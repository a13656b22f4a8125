package core

import (
	"testing"

	"dampi/internal/pnmpi"
	"dampi/mpi"
)

// runWithTool executes one instrumented run with an explicit ToolConfig.
func runWithTool(t *testing.T, cfg ToolConfig, program func(*mpi.Proc) error) *RunTrace {
	t.Helper()
	tool := NewTool(cfg)
	w := mpi.NewWorld(mpi.Config{Procs: cfg.Procs, Hooks: pnmpi.Stack(tool.Hooks())})
	if err := w.Run(program); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return tool.Trace()
}

// TestGuidedModeTransitions: forced epochs run GUIDED, epochs past the
// guided epoch revert to SELF_RUN (Algorithm 1's mode machine).
func TestGuidedModeTransitions(t *testing.T) {
	prog := fanInProgram(3, 2) // rank 0: epochs lc=0..3
	base := runWithTool(t, ToolConfig{Procs: 3}, prog)
	if len(base.Epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(base.Epochs))
	}

	// Force only the first two epochs (guided epoch = 1): the trace must
	// mark exactly those as guided.
	d := NewDecisions()
	for _, e := range base.Epochs {
		if e.LC <= 1 {
			d.Force(e.ID(), e.Chosen)
		}
	}
	trace := runWithTool(t, ToolConfig{Procs: 3, Decisions: d}, prog)
	if len(trace.Mismatches) != 0 {
		t.Fatalf("mismatches: %v", trace.Mismatches)
	}
	for _, e := range trace.Epochs {
		wantGuided := e.LC <= 1
		if e.Guided != wantGuided {
			t.Errorf("epoch %v guided = %v, want %v", e.ID(), e.Guided, wantGuided)
		}
	}
}

// TestForcedMismatchDetected: forcing an epoch to a source that cannot be
// its match is detected (and reported as a guided-replay failure) rather
// than silently accepted.
func TestForcedMismatchDetected(t *testing.T) {
	// Rank 0 receives one message per tag from fixed senders; forcing the
	// tag-1 epoch to source 2 (which only sends tag 2) cannot be honored.
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 1:
			return p.Send(0, 1, nil, c)
		case 2:
			return p.Send(0, 2, nil, c)
		case 0:
			if _, _, err := p.Recv(mpi.AnySource, 1, c); err != nil {
				return err
			}
			_, _, err := p.Recv(mpi.AnySource, 2, c)
			return err
		}
		return nil
	}
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 0}, 2) // tag-1 receive forced to rank 2: impossible
	tool := NewTool(ToolConfig{Procs: 3, Decisions: d})
	w := mpi.NewWorld(mpi.Config{Procs: 3, Hooks: pnmpi.Stack(tool.Hooks())})
	err := w.Run(prog)
	// The determinized receive (src=2, tag=1) never matches: deadlock.
	if !mpi.IsDeadlock(err) {
		t.Fatalf("expected deadlock from unenforceable decision, got %v", err)
	}
}

// TestEpochTagAndCommRecorded: the trace carries enough to reconstruct the
// decision context.
func TestEpochTagAndCommRecorded(t *testing.T) {
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			_, _, err := p.Recv(mpi.AnySource, 42, c)
			return err
		}
		if p.Rank() == 1 {
			return p.Send(0, 42, nil, c)
		}
		return nil
	}
	trace := runWithTool(t, ToolConfig{Procs: 3}, prog)
	if len(trace.Epochs) != 1 {
		t.Fatalf("epochs = %d", len(trace.Epochs))
	}
	e := trace.Epochs[0]
	if e.Tag != 42 || e.CommID != 0 || e.Kind != RecvEpoch || e.Chosen != 1 {
		t.Errorf("bad epoch record: %+v", e)
	}
	if trace.MaxLC == 0 {
		t.Error("MaxLC not tracked")
	}
}

// TestModeAndKindStrings covers the small stringers.
func TestModeAndKindStrings(t *testing.T) {
	for _, s := range []string{
		RecvEpoch.String(), ProbeEpoch.String(),
		Lamport.String(), VectorClock.String(),
		EpochID{Rank: 1, LC: 2}.String(),
		UnsafeReport{}.String(),
		ForcedMismatch{}.String(),
	} {
		if s == "" {
			t.Error("empty stringer output")
		}
	}
}

// TestGuidedMarksOnlyForcedEpochs: an epoch is guided when a decision forced
// it, not because its rank is still short of its guided epoch — the search
// reads the mark as "part of the forced prefix".
func TestGuidedMarksOnlyForcedEpochs(t *testing.T) {
	prog := fanInProgram(3, 2) // rank 0: epochs lc=0..3
	base := runWithTool(t, ToolConfig{Procs: 3}, prog)
	d := NewDecisions()
	for _, e := range base.Epochs {
		if e.LC == 1 || e.LC == 3 {
			d.Force(e.ID(), e.Chosen)
		}
	}
	trace := runWithTool(t, ToolConfig{Procs: 3, Decisions: d}, prog)
	if len(trace.Epochs) != 4 || len(trace.Mismatches) != 0 {
		t.Fatalf("epochs = %d, mismatches %v", len(trace.Epochs), trace.Mismatches)
	}
	for _, e := range trace.Epochs {
		if _, forced := d.Lookup(e.Rank, e.LC); e.Guided != forced {
			t.Errorf("epoch %v guided = %v, forced = %v", e.ID(), e.Guided, forced)
		}
	}
}
