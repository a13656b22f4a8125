package jobqueue

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// TestJobReportPrintsThroughTheCoreRenderer: a persisted job report prints
// what the CLI prints for the core.Report it was reduced from — the same
// renderer, and the same "#<index>" on each error, where it used to number
// them 1, 2, 3.
func TestJobReportPrintsThroughTheCoreRenderer(t *testing.T) {
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: 1, LC: 7}, 3)
	rep := &core.Report{
		Interleavings: 9, Deadlocks: 1, WildcardsAnalyzed: 2, DecisionPoints: 5, Capped: true, Sampled: 4, SampledDistinct: 3,
		Unsafe: []core.UnsafeReport{{Rank: 1, LC: 7, Op: "Send", Count: 1}},
		Errors: []*core.InterleavingResult{
			{Index: 7, Err: errors.New("deadlock: all ranks blocked"), Deadlock: true, Decisions: d},
			{Index: 0, Err: errors.New("boom"), Decisions: core.NewDecisions()},
		},
	}
	spec := dcoord.JobSpec{Workload: "iprobe", Procs: 2, Space: dexplore.Space{SampleStrategy: "random", Samples: 4, SampleDepth: 2}}
	body, err := json.Marshal(NewJobReport(spec, rep, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	var stored JobReport
	if err := json.Unmarshal(body, &stored); err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	rep.WriteHead(&want, rep.Summary(), spec.SampleDepth)
	rep.WriteErrors(&want)
	if got := stored.Text(); got != want.String() {
		t.Errorf("stored report prints\n%s\nthe core renderer\n%s", got, want.String())
	}
	if got := stored.Summary(); got != rep.Summary() {
		t.Errorf("summary %q, want %q", got, rep.Summary())
	}
	for _, line := range []string{
		"DAMPI: interleavings=9 errors=2 deadlocks=1 wildcards=2 (capped) sampled=4 distinct=3 unsafe-patterns=1\n",
		"  schedule sampling: exhaustive below depth 2, sampled 4 schedules beyond, 3 distinct\n",
		"  error in interleaving #7: deadlock: all ranks blocked\n    reproducer: {r1:[7→3]}\n",
		"  error in interleaving #0: boom\n",
	} {
		if !strings.Contains(want.String(), line) {
			t.Errorf("the rendered report lacks %q:\n%s", line, want.String())
		}
	}
}
