package dexplore

import (
	"strings"
	"testing"

	"dampi/internal/core"
)

// TestCheckpointValidatePerField: every exploration parameter a checkpoint
// records is checked individually on resume, and each mismatch names both
// sides — a checkpoint's frontier is only meaningful in the interleaving
// space that produced it.
func TestCheckpointValidatePerField(t *testing.T) {
	ckp := &Checkpoint{
		Version:  checkpointVersion,
		Workload: "matmul",
		Procs:    6,
		Space:    Space{Clock: core.Lamport, Transport: core.Separate, MixingBound: 1},
	}
	base := core.ExplorerConfig{
		Procs:       6,
		Clock:       core.Lamport,
		Transport:   core.Separate,
		MixingBound: 1,
	}
	if err := ckp.Validate("matmul", &base); err != nil {
		t.Fatalf("matching config rejected: %v", err)
	}
	if err := ckp.Validate("", &base); err != nil {
		t.Fatalf("unnamed config rejected against named checkpoint: %v", err)
	}

	cases := []struct {
		name     string
		workload string
		mutate   func(*core.ExplorerConfig)
		want     string
	}{
		{"workload", "adlb", func(c *core.ExplorerConfig) {}, "workload"},
		{"procs", "matmul", func(c *core.ExplorerConfig) { c.Procs = 8 }, "procs"},
		{"clock", "matmul", func(c *core.ExplorerConfig) { c.Clock = core.VectorClock }, "clock"},
		{"dual-clock", "matmul", func(c *core.ExplorerConfig) { c.DualClock = true }, "dual-clock"},
		{"transport", "matmul", func(c *core.ExplorerConfig) { c.Transport = core.Inband }, "transport"},
		{"mixing-bound", "matmul", func(c *core.ExplorerConfig) { c.MixingBound = 3 }, "mixing bound"},
		{"autoloop", "matmul", func(c *core.ExplorerConfig) { c.AutoLoopThreshold = 4 }, "autoloop"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			err := ckp.Validate(tc.workload, &cfg)
			if err == nil {
				t.Fatalf("mismatched %s accepted", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointValidateVersion: an unknown on-disk format version is
// refused before any field comparison.
func TestCheckpointValidateVersion(t *testing.T) {
	ckp := &Checkpoint{Version: checkpointVersion + 1, Procs: 4}
	err := ckp.Validate("", &core.ExplorerConfig{Procs: 4})
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version accepted: %v", err)
	}
}

// TestCheckpointWorkloadRoundTrip: the coordinator-set workload name
// survives save/load, and its absence stays absent (single-process
// checkpoints remain unnamed and universally resumable).
func TestCheckpointWorkloadRoundTrip(t *testing.T) {
	named := &Checkpoint{Version: checkpointVersion, Workload: "adlb", Procs: 4}
	got := rewriteCheckpoint(t, named)
	if got.Workload != "adlb" {
		t.Errorf("workload = %q after round trip, want adlb", got.Workload)
	}

	unnamed := &Checkpoint{Version: checkpointVersion, Procs: 4}
	if got := rewriteCheckpoint(t, unnamed); got.Workload != "" {
		t.Errorf("unnamed checkpoint grew workload %q", got.Workload)
	}
}

// rewriteCheckpoint round-trips a checkpoint through its JSON form.
func rewriteCheckpoint(t *testing.T, ckp *Checkpoint) *Checkpoint {
	t.Helper()
	var b strings.Builder
	if err := ckp.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestCheckpointValidateRefusesWhatCannotReplay: a frontier decision naming no
// rank of the world, or forcing a source past it, replays into a failure the
// program cannot have (an out-of-range peer is a usage error) or silently
// explores another subtree; negative counts make a negative report. Each is
// refused naming the problem. A choice point's decision is a request index,
// which the world size does not bound.
func TestCheckpointValidateRefusesWhatCannotReplay(t *testing.T) {
	decided := func(rank, src int) []*core.SubtreeTask {
		d := core.NewDecisions()
		d.Force(core.EpochID{Rank: rank, LC: 4}, src)
		return []*core.SubtreeTask{core.RootTask(&core.ExplorerConfig{}), {Decisions: d, Budget: core.Unbounded, Explorable: true}}
	}
	for _, tc := range []struct {
		name     string
		choices  bool
		rep      core.Report
		frontier []*core.SubtreeTask
		want     string // "" = accepted
	}{
		{"in-range", false, core.Report{Interleavings: 2}, decided(2, 1), ""},
		{"rank-past-the-world", false, core.Report{}, decided(3, 1), "r3@4→1 is out of range for 3 ranks"},
		{"negative-rank", false, core.Report{}, decided(-1, 1), "r-1@4→1 is out of range"},
		{"source-past-the-world", false, core.Report{}, decided(0, 9), "r0@4→9 is out of range"},
		{"negative-source", false, core.Report{}, decided(0, -3), "r0@4→-3 is out of range"},
		{"request-index", true, core.Report{}, decided(0, 9), ""},
		{"negative-request-index", true, core.Report{}, decided(0, -1), "out of range"},
		{"negative-interleavings", false, core.Report{Interleavings: -5}, nil, "negative count"},
		{"negative-deadlocks", false, core.Report{Interleavings: 1, Deadlocks: -1}, nil, "negative count"},
		{"negative-static-pruned", false, core.Report{StaticPruned: -2}, nil, "negative count"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.ExplorerConfig{Procs: 3, ChoicePoints: tc.choices}
			err := NewCheckpoint("", &cfg, &tc.rep, tc.frontier).Validate("", &cfg)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("refused: %v", err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
