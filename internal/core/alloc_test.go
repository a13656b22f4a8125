package core

import (
	"runtime"
	"testing"

	"dampi/internal/race"
	"dampi/mpi"
	"dampi/workloads/adlb"
)

// TestWarmReplayAllocBudget guards the per-replay fixed cost: once a
// RunContext is warm, a guided ADLB replay at 8 ranks allocates what leaves
// it (trace, reproducer, application payloads), not what its world is made
// of. Bytes, because a single 8 KB slab per rank is one malloc — and mallocs,
// because a coroutine started per rank per world is 12 small objects (96 of
// them, 2.7 KB, at 8 ranks): the replay measures 56.00 and 5.35 KB, every run
// (5.85 KB while a decision was 24 bytes, 5.77 KB before a kept trace carried the world's leaks and counts; 74 and 6.19 KB when each world built its World, member list and RunError
// and clock buffers drained the sender's per-rank freelist, 76 and 6.5 KB
// when the tool opened each world with a shadow CommDup, 172 when World.Run
// called iter.Pull itself), so budgets of 62 and 7 KB let neither a
// per-world collective, a tool context that is rebuilt instead of carried
// (one mailbox array per communicator) nor a fresh World back in unseen.
func TestWarmReplayAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const replays, budgetKB, budgetMallocs = 200, 7, 62
	cfg := &ExplorerConfig{Procs: 8, Program: adlb.Program(adlb.DriverConfig{})}
	rc := NewRunContext(cfg)
	defer rc.Close()
	_, res, err := rc.Run(nil)
	if err != nil || res.Err != nil {
		t.Fatalf("self run: %v / %v", err, res.Err)
	}
	decisions := res.Decisions
	replay := func(n int) {
		for i := 0; i < n; i++ {
			if _, res, err := rc.Run(decisions); err != nil || res.Err != nil {
				t.Fatalf("replay: %v / %v", err, res.Err)
			}
		}
	}
	replay(20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replay(replays)
	runtime.ReadMemStats(&after)
	perReplayKB := float64(after.TotalAlloc-before.TotalAlloc) / replays / 1024
	perReplayMallocs := float64(after.Mallocs-before.Mallocs) / replays
	t.Logf("warm ADLB p=8 replay: %.2f KB, %.2f mallocs", perReplayKB, perReplayMallocs)
	if perReplayKB > budgetKB {
		t.Fatalf("warm replay allocates %.1f KB (budget %d KB)", perReplayKB, budgetKB)
	}
	if perReplayMallocs > budgetMallocs {
		t.Fatalf("warm replay makes %.0f allocations (budget %d)", perReplayMallocs, budgetMallocs)
	}
}

// TestWarmExploreAllocBudget guards the search loop's per-replay cost: inside
// a warm RunContext.Explore lease, an ADLB p=8, k=2 replay allocates what
// outlives it — its child tasks and application payloads — and builds its
// trace, result and expansion in the context's reused storage and no
// reproducer (no result is kept: nothing fails, nothing is sampled, nobody
// observes). It measures 1.05 KB in 52.6 mallocs, every run (1.36 KB in 53.4
// while every child held its own copy of its decision prefix rather than a
// prefix node, 1.55 KB while a decision was 24 bytes); a fresh World, result
// and expansion per replay measure 2.14 KB in 73.5, and a fresh trace and
// reproducer besides 7.01 KB.
func TestWarmExploreAllocBudget(t *testing.T) {
	const budgetKB, budgetMallocs = 1.15, 56
	kb, mallocs := warmExploreCost(t, "ADLB p=8 k=2", adlb.Program(adlb.DriverConfig{}))
	if kb > budgetKB {
		t.Fatalf("a replay in a warm lease allocates %.2f KB (budget %.2f KB)", kb, budgetKB)
	}
	if mallocs > budgetMallocs {
		t.Fatalf("a replay in a warm lease makes %.1f allocations (budget %d)", mallocs, budgetMallocs)
	}
}

// TestWarmLeakingExploreAllocBudget: a program that leaks a communicator and
// a request on every rank costs a replay in a warm lease no more than it did
// when no replay tracked leaks: the runtime builds leak records only for a
// trace a caller keeps, and the list of requests handed to the program
// reuses its storage. ADLB p=8, k=2 with the two leaks measures 3.89 KB in
// 79.0 mallocs per replay, every run (4.22 KB in 79.8 while every child held
// its own copy of its prefix, 4.41 KB while a decision was 24 bytes,
// 4.66 KB in 87.8 while each collective built a closure for its post hooks,
// and no replay in a lease tracked leaks); one allocation per rank per world
// would cross the budget.
func TestWarmLeakingExploreAllocBudget(t *testing.T) {
	const budgetKB, budgetMallocs = 4.0, 81
	run := adlb.Program(adlb.DriverConfig{})
	kb, mallocs := warmExploreCost(t, "leaking ADLB p=8 k=2", func(p *mpi.Proc) error {
		c := p.CommWorld()
		if _, err := p.CommDup(c); err != nil { // never freed
			return err
		}
		if _, err := p.Irecv(p.Rank(), 999, c); err != nil { // never sent, never waited
			return err
		}
		return run(p)
	})
	if kb > budgetKB {
		t.Fatalf("a leaking replay in a warm lease allocates %.2f KB (budget %.1f KB)", kb, budgetKB)
	}
	if mallocs > budgetMallocs {
		t.Fatalf("a leaking replay in a warm lease makes %.1f allocations (budget %d)", mallocs, budgetMallocs)
	}
}

// warmExploreCost runs program's p=8, k=2 search for a few dozen replays,
// then measures a lease of 300 more on the warm context: KB and mallocs per
// replay. Every replay must be clean.
func warmExploreCost(t *testing.T, name string, program func(p *mpi.Proc) error) (kb, mallocs float64) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const warm, replays = 40, 300
	cfg := &ExplorerConfig{Procs: 8, Program: program, MixingBound: 2}
	rc := NewRunContext(cfg)
	_, stack, _, err := rc.Explore([]*SubtreeTask{RootTask(cfg)}, warm, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, _, _, err := rc.Explore(stack, replays, false, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interleavings != replays || rep.Errored() || rep.Deadlocks > 0 {
		t.Fatalf("lease ran %d replays (%d errors, %d deadlocks), want %d clean ones", rep.Interleavings, len(rep.Errors), rep.Deadlocks, replays)
	}
	kb = float64(after.TotalAlloc-before.TotalAlloc) / replays / 1024
	mallocs = float64(after.Mallocs-before.Mallocs) / replays
	t.Logf("warm %s lease: %.2f KB, %.2f mallocs per replay", name, kb, mallocs)
	return kb, mallocs
}
