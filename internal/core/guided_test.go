package core_test

import (
	"testing"

	"dampi/internal/core"
	"dampi/internal/isp"
	"dampi/workloads"
)

// guidedChecker is a Runner wrapped around another: every trace it hands on
// must keep the Runner's Guided contract — a record is Guided exactly when
// the decisions the run was made under hold its key — and its exhaustive
// expansion, for tasks of every kind over it, must equal the reference's.
// It counts the guided records it saw in guided.
func guidedChecker(t *testing.T, name string, guided *int, run func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error)) func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	return func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		trace, res, err := run(cfg, d)
		if err != nil {
			return nil, nil, err
		}
		for _, rec := range trace.Epochs {
			if _, forced := d.Lookup(rec.Rank, rec.LC); rec.Guided != forced {
				t.Fatalf("%s under %s: %v guided = %v, decided = %v", name, d, rec, rec.Guided, forced)
			}
			if rec.Guided {
				*guided++
			}
		}
		for _, task := range []core.SubtreeTask{
			{Decisions: d, Budget: core.Unbounded, Explorable: true, Depth: 2},
			{Decisions: d, Budget: 0, Explorable: true},
			{Decisions: d, Budget: core.Unbounded, Explorable: false},
		} {
			for _, threshold := range []int{0, 2} {
				for _, build := range []bool{true, false} {
					ecfg := core.ExplorerConfig{Procs: cfg.Procs, AutoLoopThreshold: threshold}
					if diff := core.ExpansionDiff(&task, &ecfg, trace, build); diff != "" {
						t.Fatalf("%s under %s (budget %d, explorable %v, threshold %d, build %v): %s",
							name, d, task.Budget, task.Explorable, threshold, build, diff)
					}
				}
			}
		}
		return trace, res, nil
	}
}

// TestRunnersMarkExactlyTheForcedPrefix: the search tells a run's forced
// prefix apart by EpochRecord.Guided alone, so every run that feeds it must
// mark exactly the records its decisions decide. Checked on every run of a
// 200-interleaving exploration of every registered workload at p=4, under
// the five tool configurations of the tool golden and under ISP's centrally
// scheduled runs — and on each of those traces, the one-pass expansion is
// checked against the clone-and-pin reference.
func TestRunnersMarkExactlyTheForcedPrefix(t *testing.T) {
	const procs, cap = 4, 200
	tools := []struct {
		name string
		set  func(*core.ExplorerConfig)
	}{
		{"lamport", func(*core.ExplorerConfig) {}},
		{"vector", func(c *core.ExplorerConfig) { c.Clock = core.VectorClock }},
		{"dual", func(c *core.ExplorerConfig) { c.DualClock = true }},
		{"inband", func(c *core.ExplorerConfig) { c.Transport = core.Inband }},
		{"choices", func(c *core.ExplorerConfig) { c.ChoicePoints = true }},
		{"isp", nil},
	}
	guided := make(map[string]int) // guided records seen, per runner
	for _, w := range workloads.All() {
		program := w.Program(workloads.Params{Procs: procs})
		for _, tc := range tools {
			cfg := core.ExplorerConfig{Procs: procs, Program: program, MixingBound: core.Unbounded, MaxInterleavings: cap}
			run := core.ExecuteRun
			if tc.set != nil {
				tc.set(&cfg)
			} else {
				run = isp.NewExplorer(isp.Config{Procs: procs, Program: program}).Run
			}
			n := guided[tc.name]
			name := w.Name + "/" + tc.name
			cfg.Runner = guidedChecker(t, name, &n, func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
				base := *cfg
				base.Runner = nil
				return run(&base, d)
			})
			if _, err := core.NewExplorer(cfg).Explore(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			guided[tc.name] = n
		}
	}
	for _, tc := range tools {
		if guided[tc.name] == 0 {
			t.Errorf("no %s run marked a record guided: the check saw no forced prefix", tc.name)
		}
	}
}
