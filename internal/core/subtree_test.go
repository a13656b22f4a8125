package core

import (
	"encoding/json"
	"testing"
)

func TestChildBudget(t *testing.T) {
	cases := []struct {
		in         int
		budget     int
		explorable bool
	}{
		{0, Unbounded, false},
		{1, 0, true},
		{3, 2, true},
		{Unbounded, Unbounded, true},
	}
	for _, c := range cases {
		b, e := childBudget(c.in)
		if b != c.budget || e != c.explorable {
			t.Errorf("childBudget(%d) = (%d, %v), want (%d, %v)", c.in, b, e, c.budget, c.explorable)
		}
	}
}

func TestRootTask(t *testing.T) {
	root := RootTask(&ExplorerConfig{Procs: 4, MixingBound: 2})
	if root.Decisions != nil {
		t.Error("root task has a forced prefix")
	}
	if root.Budget != 2 || !root.Explorable {
		t.Errorf("root task = %+v, want budget 2, explorable", root)
	}
}

// epochRec builds a completed wildcard epoch for synthetic traces.
func epochRec(rank int, lc uint64, chosen int, alts ...int) *EpochRecord {
	return &EpochRecord{Rank: rank, LC: lc, Chosen: chosen, Alternates: alts}
}

func TestExpandRoot(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 4, MixingBound: 1}
	trace := &RunTrace{Epochs: []*EpochRecord{
		epochRec(0, 1, 2, 3),
		epochRec(1, 4, 0, 2, 3),
		{Rank: 2, LC: 9, Chosen: -1}, // never completed: skipped entirely
	}}
	ex := RootTask(cfg).Expand(cfg, trace)
	if ex.DecisionPoints != 2 {
		t.Errorf("decision points = %d, want 2", ex.DecisionPoints)
	}
	if len(ex.Children) != 3 {
		t.Fatalf("children = %d, want 3 (one per alternate)", len(ex.Children))
	}
	// First child: flip epoch (0,1) to its only alternate, nothing pinned.
	if got, want := ex.Children[0].Decisions.String(), "{r0:[1→3]}"; got != want {
		t.Errorf("child 0 decisions = %s, want %s", got, want)
	}
	// Later children pin the earlier epoch to its observed choice.
	if got, want := ex.Children[1].Decisions.String(), "{r0:[1→2] r1:[4→2]}"; got != want {
		t.Errorf("child 1 decisions = %s, want %s", got, want)
	}
	if got, want := ex.Children[2].Decisions.String(), "{r0:[1→2] r1:[4→3]}"; got != want {
		t.Errorf("child 2 decisions = %s, want %s", got, want)
	}
	// Bounded mixing: the root carries k=1, so children get budget 0 and stay
	// explorable; their own children will not be.
	for i, c := range ex.Children {
		if c.Budget != 0 || !c.Explorable {
			t.Errorf("child %d budget = (%d, %v), want (0, true)", i, c.Budget, c.Explorable)
		}
	}
}

func TestExpandSkipsForcedPrefix(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 4}
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 1}, 3)
	task := &SubtreeTask{Decisions: d, Budget: Unbounded, Explorable: true}
	forced := epochRec(0, 1, 3, 2) // the forced flip itself: prefix, not a decision point
	forced.Guided = true
	trace := &RunTrace{Epochs: []*EpochRecord{
		forced,
		epochRec(1, 4, 0, 2, 3), // new epoch below the flip
	}}
	ex := task.Expand(cfg, trace)
	if ex.DecisionPoints != 1 {
		t.Errorf("decision points = %d, want 1 (forced epoch excluded)", ex.DecisionPoints)
	}
	if len(ex.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(ex.Children))
	}
	// Children inherit the task's prefix plus the flip; the forced epoch is
	// not re-pinned via the observed path (it is already in the prefix).
	if got, want := ex.Children[0].Decisions.String(), "{r0:[1→3] r1:[4→2]}"; got != want {
		t.Errorf("child 0 decisions = %s, want %s", got, want)
	}
	// The task's own decisions must not be mutated by expansion.
	if got, want := d.String(), "{r0:[1→3]}"; got != want {
		t.Errorf("task decisions mutated: %s, want %s", got, want)
	}
}

func TestExpandUnexplorableTask(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 4}
	task := &SubtreeTask{Decisions: nil, Budget: Unbounded, Explorable: false}
	trace := &RunTrace{Epochs: []*EpochRecord{epochRec(0, 1, 2, 3)}}
	ex := task.Expand(cfg, trace)
	if len(ex.Children) != 0 {
		t.Errorf("unexplorable task expanded %d children", len(ex.Children))
	}
	if ex.DecisionPoints != 1 {
		t.Errorf("decision points = %d, want 1 (still counted)", ex.DecisionPoints)
	}
}

func TestExpandSkipsLoopEpochs(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 4}
	task := RootTask(cfg)
	task.Budget = Unbounded
	trace := &RunTrace{Epochs: []*EpochRecord{
		{Rank: 0, LC: 1, Chosen: 2, Alternates: []int{3}, InLoop: true},
		epochRec(1, 4, 0, 2),
	}}
	ex := task.Expand(cfg, trace)
	if len(ex.Children) != 1 {
		t.Fatalf("children = %d, want 1 (loop epoch not flipped)", len(ex.Children))
	}
	// The loop epoch is still pinned in the non-loop child's prefix.
	if got, want := ex.Children[0].Decisions.String(), "{r0:[1→2] r1:[4→2]}"; got != want {
		t.Errorf("child decisions = %s, want %s", got, want)
	}
}

func TestExpandAutoLoopDetection(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 4, AutoLoopThreshold: 2}
	task := RootTask(cfg)
	task.Budget = Unbounded
	var epochs []*EpochRecord
	for i := 0; i < 5; i++ {
		// Same signature (comm 0, tag 0, same kind) on rank 0 every time.
		epochs = append(epochs, epochRec(0, uint64(i+1), 1, 2))
	}
	ex := task.Expand(cfg, &RunTrace{Epochs: epochs})
	if ex.AutoAbstracted != 3 {
		t.Errorf("auto-abstracted = %d, want 3 (beyond threshold 2)", ex.AutoAbstracted)
	}
	if len(ex.Children) != 2 {
		t.Errorf("children = %d, want 2 (only the first two repetitions flip)", len(ex.Children))
	}
}

// TestSubtreeTaskJSONRoundTrip: a task with a non-empty decision prefix and
// live expansion state survives the JSON codec — the wire form used by both
// checkpoint frontiers and the distributed coordinator's task frames.
func TestSubtreeTaskJSONRoundTrip(t *testing.T) {
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 2}, 1)
	d.Force(EpochID{Rank: 1, LC: 5}, 3)
	d.Force(EpochID{Rank: 2, LC: 1}, 0)
	cases := []*SubtreeTask{
		{Decisions: d, Budget: 2, Explorable: true},
		{Decisions: d, Budget: 0, Explorable: true},
		{Decisions: d, Budget: Unbounded, Explorable: true},
		{Decisions: d, Budget: Unbounded, Explorable: false},
	}
	for _, in := range cases {
		body, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %+v: %v", in, err)
		}
		out := &SubtreeTask{}
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		if out.Budget != in.Budget || out.Explorable != in.Explorable {
			t.Errorf("expansion state changed: %+v -> %+v", in, out)
		}
		if out.Decisions.String() != in.Decisions.String() {
			t.Errorf("decision prefix changed: %s -> %s", in.Decisions, out.Decisions)
		}
		if got, ok := out.Decisions.Lookup(1, 5); !ok || got != 3 {
			t.Errorf("forced source for rank1/lc5 = (%d, %v), want (3, true)", got, ok)
		}
	}
}

// TestSubtreeTaskJSONRootNil: the root task's nil prefix round-trips as
// JSON null and stays nil — the coordinator identifies the root task by
// exactly this property.
func TestSubtreeTaskJSONRootNil(t *testing.T) {
	root := RootTask(&ExplorerConfig{Procs: 4, MixingBound: 2})
	body, err := json.Marshal(root)
	if err != nil {
		t.Fatal(err)
	}
	out := &SubtreeTask{}
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatal(err)
	}
	if out.Decisions != nil {
		t.Errorf("root prefix is %v after round trip, want nil", out.Decisions)
	}
	if out.Budget != 2 || !out.Explorable {
		t.Errorf("root expansion state changed: %+v", out)
	}
}
