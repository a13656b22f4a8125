package core_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"dampi/internal/core"
	"dampi/internal/sample"
	"dampi/mpi"
	"dampi/workloads/iprobe"
)

// deadlockingFanIn has rank 0 take one wildcard message from each other rank,
// unless the last rank's comes first: it then waits for a tag nobody sends.
func deadlockingFanIn(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, nil, c)
	}
	for i := 1; i < p.Size(); i++ {
		_, st, err := p.Recv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if i == 1 && st.Source == p.Size()-1 {
			_, _, err := p.Recv(1, 9, c)
			return err
		}
	}
	return nil
}

// waitanyFanIn opens rank 0's run with a Waitany choice point (its epoch at
// LC 0), then takes one wildcard message from each other rank.
func waitanyFanIn(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		if err := p.Send(0, 0, nil, c); err != nil {
			return err
		}
		return p.Send(0, 1, nil, c)
	}
	var reqs []*mpi.Request
	for src := 1; src < p.Size(); src++ {
		r, err := p.Irecv(src, 0, c)
		if err != nil {
			return err
		}
		reqs = append(reqs, r)
	}
	if _, _, err := p.Waitany(reqs); err != nil {
		return err
	}
	if _, err := p.Waitall(reqs); err != nil {
		return err
	}
	for src := 1; src < p.Size(); src++ {
		if _, _, err := p.Recv(mpi.AnySource, 1, c); err != nil {
			return err
		}
	}
	return nil
}

// freshRuns is the reference Runner: every run through ExecuteRun, on a
// context of its own, so every trace is fresh storage and every result
// carries its reproducer.
func freshRuns(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	base := *cfg
	base.Runner = nil
	return core.ExecuteRun(&base, d)
}

// oddLastFanIn has rank 0 take one wildcard message from each other rank and
// fail when the last comes from an odd rank: its interleavings fail and pass
// in turn.
func oddLastFanIn(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, nil, c)
	}
	var order []int
	for i := 1; i < p.Size(); i++ {
		_, st, err := p.Recv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		order = append(order, st.Source)
	}
	if order[len(order)-1]%2 == 1 {
		return fmt.Errorf("sources arrived in order %v", order)
	}
	return nil
}

// keptResult is what a result carries out of its replay.
type keptResult struct {
	Index      int
	Err        string
	Deadlock   bool
	Mismatches []core.ForcedMismatch
	Epochs     int
	Decisions  *core.Decisions
}

func keep(r *core.InterleavingResult) keptResult {
	k := keptResult{Index: r.Index, Deadlock: r.Deadlock, Mismatches: r.Mismatches, Epochs: r.Epochs, Decisions: r.Decisions}
	if r.Err != nil {
		k.Err = r.Err.Error()
	}
	return k
}

// exploreAndRender explores cfg from the root and a task per forced prefix
// (popped first, the last first), keeping every result when observe is set.
// After the search returns, it renders as JSON all of it that outlives a
// replay: the sealed report — errors with their reproducers, the root's trace,
// the sampled schedules — and the kept results.
func exploreAndRender(t *testing.T, cfg core.ExplorerConfig, forced func() []*core.Decisions, observe bool) (string, *core.Report, []*core.InterleavingResult) {
	t.Helper()
	var kept []*core.InterleavingResult
	if observe {
		cfg.OnInterleaving = func(res *core.InterleavingResult) { kept = append(kept, res) }
	}
	stack := []*core.SubtreeTask{core.RootTask(&cfg)}
	if forced != nil {
		for _, d := range forced() {
			stack = append(stack, &core.SubtreeTask{Decisions: d, Budget: cfg.MixingBound, Explorable: true, Depth: 1})
		}
	}
	rep, left, unbuilt, err := core.NewRunContext(&cfg).Explore(stack, cfg.MaxInterleavings, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	rep.Seal(&cfg, len(left) > 0 || unbuilt > 0)
	out := struct {
		Report          *core.Report
		SampledDistinct int
		Kept            []keptResult
	}{Report: rep, SampledDistinct: rep.SampledDistinct}
	for _, r := range kept {
		out.Kept = append(out.Kept, keep(r))
	}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b), rep, kept
}

// TestReuseNeverReachesWhatOutlivesAReplay: the search loop builds a dropped
// trace in reused storage and a reproducer only for a result it keeps. What
// it hands out — failures and their reproducers, deadlocks, forced
// mismatches, the root's trace, sampled schedules, every result an
// OnInterleaving keeps — renders exactly as when every run has fresh storage
// and its reproducer, whether or not a callback observes.
func TestReuseNeverReachesWhatOutlivesAReplay(t *testing.T) {
	cases := []struct {
		name   string
		cfg    core.ExplorerConfig
		forced func() []*core.Decisions // prefixes of tasks beside the root
	}{
		{"fig3", core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: core.Fig3Program}, nil},
		{"deadlocking-fan-in", core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: deadlockingFanIn}, nil},
		{"forced-mismatch", core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, ChoicePoints: true, Program: waitanyFanIn},
			func() []*core.Decisions {
				// Rank 0's Waitany has two requests: neither index can be
				// honored, and each subtree's runs report their own.
				var out []*core.Decisions
				for _, idx := range []int{5, 7} {
					d := core.NewDecisions()
					d.Force(core.EpochID{Rank: 0, LC: 0}, idx)
					out = append(out, d)
				}
				return out
			}},
		{"sampled", core.ExplorerConfig{Procs: 2, ChoicePoints: true, Program: iprobe.Program(iprobe.Config{}),
			Sampler: sample.New(sample.Config{Strategy: sample.Random, Samples: 24, Seed: 7, Procs: 2})}, nil},
	}
	var errored, deadlocked, mismatched, sampled bool
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := tc.cfg
			ref.Runner = freshRuns
			want, rep, kept := exploreAndRender(t, ref, tc.forced, true)
			errored = errored || len(rep.Errors) > 0
			deadlocked = deadlocked || rep.Deadlocks > 0
			sampled = sampled || rep.SampledDistinct > 1
			for _, r := range kept {
				mismatched = mismatched || len(r.Mismatches) > 0
			}
			if got, _, _ := exploreAndRender(t, tc.cfg, tc.forced, true); got != want {
				t.Errorf("observed, with reuse:\n%s\nwith fresh runs:\n%s", got, want)
			}
			want, _, _ = exploreAndRender(t, ref, tc.forced, false)
			if got, _, _ := exploreAndRender(t, tc.cfg, tc.forced, false); got != want {
				t.Errorf("unobserved, with reuse:\n%s\nwith fresh runs:\n%s", got, want)
			}
		})
	}
	if !errored || !deadlocked || !mismatched || !sampled {
		t.Errorf("degenerate fixtures: errors %v, deadlocks %v, mismatches %v, sampled schedules %v; want all",
			errored, deadlocked, mismatched, sampled)
	}
}

// render is the JSON of v, which must marshal.
func render(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestKeptResultsOutliveTheLease: a search reuses one result and one
// expansion from replay to replay, so whatever it hands out must be fresh. A
// caller keeps a pointer to every result it is handed — each Report.Errors
// entry, and, when it observes, every result its OnInterleaving sees — and
// each must render byte-identically after the same context has run 50 more
// replays. So must an Expansion the public Expand returned.
func TestKeptResultsOutliveTheLease(t *testing.T) {
	const first, more = 20, 50
	for _, observe := range []bool{false, true} {
		cfg := core.ExplorerConfig{Procs: 6, MixingBound: core.Unbounded, Program: oddLastFanIn}
		var observed []*core.InterleavingResult
		if observe {
			cfg.OnInterleaving = func(res *core.InterleavingResult) { observed = append(observed, res) }
		}
		rc := core.NewRunContext(&cfg)

		// An expansion from the public Expand, made on the same context.
		root := core.RootTask(&cfg)
		trace, _, err := rc.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		ex := root.Expand(&cfg, trace)
		renderEx := func() string {
			var keys []string
			for _, c := range ex.Children {
				keys = append(keys, c.Decisions.String())
			}
			return render(t, struct {
				Keys           []string
				DecisionPoints int
			}{keys, ex.DecisionPoints})
		}
		wantEx := renderEx()

		rep, left, _, err := rc.Explore([]*core.SubtreeTask{root}, first, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := rep.Errors
		if observe {
			kept = observed
		}
		if len(rep.Errors) == 0 || len(rep.Errors) == first {
			t.Fatalf("the first lease failed %d of %d replays, want some but not all", len(rep.Errors), first)
		}
		want := make([]string, len(kept))
		for i, r := range kept {
			want[i] = render(t, keep(r))
		}
		rep2, _, _, err := rc.Explore(left, more, false, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Interleavings != more || len(rep2.Errors) == 0 {
			t.Fatalf("observe=%v: the second lease ran %d replays with %d errors, want %d replays and some errors", observe, rep2.Interleavings, len(rep2.Errors), more)
		}
		for i, r := range kept {
			if got := render(t, keep(r)); got != want[i] {
				t.Errorf("observe=%v: kept result %d changed under later replays:\n%s\nwas\n%s", observe, i, got, want[i])
			}
		}
		if got := renderEx(); got != wantEx {
			t.Errorf("observe=%v: an Expand expansion changed under later replays:\n%s\nwas\n%s", observe, got, wantEx)
		}
	}
}
