package verify_test

import (
	"path/filepath"
	"testing"

	"dampi/verify"
	"dampi/workloads"
	"dampi/workloads/fanin"
)

// faninSrc is the fanin workload's source directory, relative to this
// package.
var faninSrc = filepath.Join("..", "workloads", "fanin")

// TestStaticPruneFaninStrictReduction is the tentpole's acceptance check:
// the fanin workload has a statically deterministic wildcard, so a pruned
// exploration at k=0 covers strictly fewer interleavings than the unpruned
// one, with an identical verdict and the exact counting identity
// unpruned = pruned + StaticPruned.
func TestStaticPruneFaninStrictReduction(t *testing.T) {
	hints, notes, err := verify.StaticHints(faninSrc, fanin.MinProcs)
	if err != nil {
		t.Fatalf("StaticHints: %v", err)
	}
	if hints == nil {
		t.Fatalf("no hints derived from %s (notes: %v)", faninSrc, notes)
	}

	prog := fanin.Program(fanin.Config{})
	un, err := verify.Run(verify.Config{Procs: fanin.MinProcs, MixingBound: 0}, prog)
	if err != nil {
		t.Fatalf("unpruned Run: %v", err)
	}
	pr, err := verify.Run(verify.Config{Procs: fanin.MinProcs, MixingBound: 0, PruneHints: hints}, prog)
	if err != nil {
		t.Fatalf("pruned Run: %v", err)
	}

	if un.Errored() || pr.Errored() {
		t.Fatalf("fanin errored: unpruned=%v pruned=%v", un.Errors, pr.Errors)
	}
	if un.Deadlocks != 0 || pr.Deadlocks != 0 {
		t.Fatalf("fanin deadlocked: unpruned=%d pruned=%d", un.Deadlocks, pr.Deadlocks)
	}
	if pr.PruneDisabled || len(pr.PruneViolations) != 0 {
		t.Fatalf("soundness cross-check tripped on correct hints: disabled=%v violations=%v",
			pr.PruneDisabled, pr.PruneViolations)
	}
	if pr.StaticPruned == 0 {
		t.Fatal("pruned run skipped no branches; the static singleton was not acted on")
	}
	if pr.Interleavings >= un.Interleavings {
		t.Errorf("pruned explored %d interleavings, want strictly fewer than unpruned %d",
			pr.Interleavings, un.Interleavings)
	}
	if un.Interleavings != pr.Interleavings+pr.StaticPruned {
		t.Errorf("counting identity broken at k=0: unpruned %d != pruned %d + StaticPruned %d",
			un.Interleavings, pr.Interleavings, pr.StaticPruned)
	}
}

// TestStaticPruneWrongHintsDisable manufactures a wrong singleton for
// fanin's wildcard: the observed match (rank 1) is outside the claimed set,
// so the runtime cross-check must record a violation, disable pruning
// run-wide, and leave coverage identical to the unpruned exploration.
func TestStaticPruneWrongHintsDisable(t *testing.T) {
	// fanin's statically deterministic wildcard is rank 0's tag-2 control
	// receive; its true sender is rank 1. Claim rank 2 instead.
	wrong := verify.NewPruneHints(map[verify.PruneHintKey][]int{
		{Rank: 0, Tag: 2, Probe: false}: {2},
	})
	prog := fanin.Program(fanin.Config{})
	un, err := verify.Run(verify.Config{Procs: fanin.MinProcs, MixingBound: 0}, prog)
	if err != nil {
		t.Fatalf("unpruned Run: %v", err)
	}
	pr, err := verify.Run(verify.Config{Procs: fanin.MinProcs, MixingBound: 0, PruneHints: wrong}, prog)
	if err != nil {
		t.Fatalf("pruned Run: %v", err)
	}
	if !pr.PruneDisabled {
		t.Error("wrong hints did not disable pruning")
	}
	if len(pr.PruneViolations) == 0 {
		t.Error("wrong hints produced no violation record")
	}
	if pr.StaticPruned != 0 {
		t.Errorf("wrong hints still pruned %d branches", pr.StaticPruned)
	}
	if pr.Interleavings != un.Interleavings {
		t.Errorf("disabled pruning changed coverage: %d vs unpruned %d",
			pr.Interleavings, un.Interleavings)
	}
	if pr.Errored() != un.Errored() {
		t.Errorf("disabled pruning changed the verdict: errored %v vs %v", pr.Errored(), un.Errored())
	}
}

// TestStaticPruneSurvivesResume: a job resumed from its own final checkpoint
// reports what the first run reported. The checkpoint carries the pruned
// count and, when a violation switched the hints off, that fact and its
// evidence; the resuming run's fresh hint table continues from them.
func TestStaticPruneSurvivesResume(t *testing.T) {
	good := func() *verify.PruneHints {
		h, _, err := verify.StaticHints(faninSrc, fanin.MinProcs)
		if err != nil || h == nil {
			t.Fatalf("StaticHints: hints=%v err=%v", h, err)
		}
		return h
	}
	wrong := func() *verify.PruneHints {
		return verify.NewPruneHints(map[verify.PruneHintKey][]int{{Rank: 0, Tag: 2}: {2}})
	}
	for name, hints := range map[string]func() *verify.PruneHints{"pruned": good, "violated": wrong} {
		t.Run(name, func(t *testing.T) {
			cfg := verify.Config{
				Procs: fanin.MinProcs, MixingBound: 0, Workers: 2,
				CheckpointFile: filepath.Join(t.TempDir(), "ckp.json"),
			}
			prog := fanin.Program(fanin.Config{})
			cfg.PruneHints = hints()
			first, err := verify.Run(cfg, prog)
			if err != nil {
				t.Fatalf("first run: %v", err)
			}
			if first.StaticPruned == 0 && !first.PruneDisabled {
				t.Fatalf("fixture reports no static pruning: %s", first.Summary())
			}
			cfg.PruneHints = hints()
			cfg.Resume = true
			resumed, err := verify.Run(cfg, prog)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if resumed.Summary() != first.Summary() {
				t.Errorf("resumed summary differs:\nfirst:   %s\nresumed: %s", first.Summary(), resumed.Summary())
			}
			if len(resumed.PruneViolations) != len(first.PruneViolations) {
				t.Errorf("resumed run kept %d violations, first run recorded %d",
					len(resumed.PruneViolations), len(first.PruneViolations))
			}
			if resumed.PruneDisabled && !cfg.PruneHints.Disabled() {
				t.Error("restored prune_disabled did not keep the resuming run's hints disabled")
			}
		})
	}
}

// workloadSrcDir maps a registered workload to the source directory its
// hints would be derived from (what `dampi -static-prune` would be pointed
// at). Suites live in shared directories with several program roots, where
// StaticHints correctly degrades to nil hints.
func workloadSrcDir(w *workloads.Workload) string {
	switch w.Suite {
	case "nas":
		return filepath.Join("..", "workloads", "nas")
	case "spec":
		return filepath.Join("..", "workloads", "spec")
	}
	switch w.Name {
	case "ParMETIS-3.1":
		return filepath.Join("..", "workloads", "parmetis")
	default:
		return filepath.Join("..", "workloads", w.Name)
	}
}

// TestStaticPruneEquivalentOnAllWorkloads is the repo-wide soundness sweep:
// for every registered workload, deriving hints from its sources and
// verifying with -static-prune semantics must yield a verdict identical to
// the unpruned exploration (and the k=0 counting identity when neither run
// was capped).
func TestStaticPruneEquivalentOnAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("explores every workload twice; skipped in -short mode")
	}
	const cap = 200
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			procs := w.MinProcs
			if procs < 4 {
				procs = 4
			}
			hints, notes, err := verify.StaticHints(workloadSrcDir(w), procs)
			if err != nil {
				t.Fatalf("StaticHints: %v", err)
			}
			if hints == nil {
				t.Logf("no hints (%d notes); pruned run degenerates to unpruned", len(notes))
			}
			prog := w.Program(workloads.Params{Procs: procs})
			un, err := verify.Run(verify.Config{
				Procs: procs, MixingBound: 0, MaxInterleavings: cap,
			}, prog)
			if err != nil {
				t.Fatalf("unpruned Run: %v", err)
			}
			pr, err := verify.Run(verify.Config{
				Procs: procs, MixingBound: 0, MaxInterleavings: cap, PruneHints: hints,
			}, prog)
			if err != nil {
				t.Fatalf("pruned Run: %v", err)
			}
			if pr.PruneDisabled {
				t.Errorf("static hints disabled at runtime — the static model disagreed with an execution: %v",
					pr.PruneViolations)
			}
			if pr.Errored() != un.Errored() || len(pr.Errors) != len(un.Errors) {
				t.Errorf("verdict differs: pruned errors=%d, unpruned errors=%d", len(pr.Errors), len(un.Errors))
			}
			if pr.Deadlocks != un.Deadlocks {
				t.Errorf("deadlocks differ: pruned=%d unpruned=%d", pr.Deadlocks, un.Deadlocks)
			}
			if un.Capped || pr.Capped {
				t.Logf("capped at %d interleavings; skipping the counting identity", cap)
				return
			}
			if un.Interleavings != pr.Interleavings+pr.StaticPruned {
				t.Errorf("counting identity broken at k=0: unpruned %d != pruned %d + StaticPruned %d",
					un.Interleavings, pr.Interleavings, pr.StaticPruned)
			}
		})
	}
}
