package verify_test

import (
	"path/filepath"
	"slices"
	"testing"

	"dampi/internal/core"
	"dampi/verify"
	"dampi/workloads"
)

// workloadSrcDir maps a registered workload to its source directory. Suites
// live in shared directories with several program roots, where StaticHints
// derives no sets.
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

// TestStaticMatchSetsHoldOnAllWorkloads: StaticHints' sender sets claim to
// contain every match the runtime can make at a wildcard. For every
// registered workload, every reproducer of a capped k=0 exploration is
// replayed, and each completed world-communicator match epoch's chosen
// sender and all its alternates must lie in the epoch's static set. fanin
// must check at least one epoch, or the oracle passes vacuously.
func TestStaticMatchSetsHoldOnAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("explores and replays every workload with derived sets; skipped in -short mode")
	}
	const cap = 200
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			procs := max(w.MinProcs, 4)
			sets, notes, err := verify.StaticHints(workloadSrcDir(w), procs)
			if err != nil {
				t.Fatalf("StaticHints: %v", err)
			}
			if sets == nil {
				t.Logf("no static sets (%d notes); nothing to check", len(notes))
				return
			}
			prog := w.Program(workloads.Params{Procs: procs})
			var repros []*verify.Decisions
			if _, err := verify.Run(verify.Config{
				Procs: procs, MixingBound: 0, MaxInterleavings: cap,
				OnInterleaving: func(res *verify.InterleavingResult) { repros = append(repros, res.Decisions) },
			}, prog); err != nil {
				t.Fatalf("Run: %v", err)
			}
			checked := 0
			for _, d := range repros {
				trace, _, err := core.Replay(core.ExplorerConfig{Procs: procs, Program: prog}, d)
				if err != nil {
					t.Fatalf("Replay %v: %v", d, err)
				}
				for _, rec := range trace.Epochs {
					if rec.Chosen < 0 || rec.CommID != 0 || !rec.Kind.MatchKind() {
						continue
					}
					set, ok := sets[verify.WildcardKey{Rank: rec.Rank, Tag: rec.Tag, Probe: rec.Kind == core.ProbeEpoch}]
					if !ok {
						continue
					}
					checked++
					for _, s := range append([]int{rec.Chosen}, rec.Alternates...) {
						if !slices.Contains(set, s) {
							t.Errorf("replay %v: rank %d tag %d matched or could match sender %d, outside its static set %v",
								d, rec.Rank, rec.Tag, s, set)
						}
					}
				}
			}
			t.Logf("%d epochs checked in %d replays", checked, len(repros))
			if w.Name == "fanin" && checked == 0 {
				t.Error("fanin checked no epoch: the oracle is vacuous")
			}
		})
	}
}
