package jobqueue

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
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

// TestReportFieldsCannotDrift: core.Report is declared once, and the two
// durable forms of it are held to it by reflection. Every exported field,
// set alone, comes back from Report → Checkpoint → JSON → Restore (the
// checkpoint embeds the report, so this fails only on a json:"-" nobody
// re-derives), or is on the derived list; and it reaches a JobReport field of
// the same name, through JSON too, or is on the list of what the service
// contract drops on purpose.
func TestReportFieldsCannotDrift(t *testing.T) {
	derived := map[string]bool{"Capped": true, "SampledDistinct": true} // Seal and Restore recompute them
	dropped := map[string]bool{"FirstTrace": true}
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: 1, LC: 7}, 3)
	full := core.Report{
		Interleavings: 9, Deadlocks: 1, DecisionPoints: 5, AutoAbstracted: 2, WildcardsAnalyzed: 3,
		Sampled: 4, SampledDistinct: 1, SampledSchedules: []string{"{r1:[7→3]}"},
		Unsafe: []core.UnsafeReport{{Rank: 1, LC: 7, Op: "Send", Count: 1}},
		Errors: []*core.InterleavingResult{{Index: 7, Err: errors.New("boom"), Deadlock: true, Decisions: d}},
		Capped: true, FirstTrace: &core.RunTrace{Epochs: []*core.EpochRecord{{Rank: 1, LC: 7}}, MaxLC: 7},
	}
	spec := dcoord.JobSpec{Workload: "w", Procs: 2}
	cfg := spec.ExplorerConfig()
	typ := reflect.TypeOf(full)
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		if !typ.Field(i).IsExported() {
			continue
		}
		want := reflect.ValueOf(full).Field(i)
		if want.IsZero() {
			t.Fatalf("the fixture leaves Report.%s zero: set it, or a forgotten copy of it reads back equal", name)
		}
		rep := &core.Report{}
		reflect.ValueOf(rep).Elem().Field(i).Set(want)

		var buf bytes.Buffer
		if err := dexplore.NewCheckpoint("w", &cfg, rep, nil).Write(&buf); err != nil {
			t.Fatal(err)
		}
		ckp, err := dexplore.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		back, _, err := ckp.Restore("w", &cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.ValueOf(back).Elem().Field(i); !derived[name] && !reflect.DeepEqual(got.Interface(), want.Interface()) {
			t.Errorf("Report.%s does not survive a checkpoint and is not derived: got %v, want %v", name, got, want)
		}

		body, err := json.Marshal(NewJobReport(spec, rep, 0))
		if err != nil {
			t.Fatal(err)
		}
		var stored JobReport
		if err := json.Unmarshal(body, &stored); err != nil {
			t.Fatal(err)
		}
		switch got := reflect.ValueOf(stored).FieldByName(name); {
		case !got.IsValid():
			if !dropped[name] {
				t.Errorf("Report.%s is not in JobReport and not dropped on purpose", name)
			}
		case dropped[name]:
			t.Errorf("Report.%s is in JobReport and on the dropped list", name)
		case !reflect.DeepEqual(got.Interface(), want.Interface()):
			t.Errorf("Report.%s does not survive a stored JobReport: got %v, want %v", name, got, want)
		}
	}
}
