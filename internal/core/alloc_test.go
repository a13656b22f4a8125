package core

import (
	"runtime"
	"testing"

	"dampi/internal/race"
	"dampi/workloads/adlb"
)

// TestWarmReplayAllocBudget guards the per-replay fixed cost: once a
// RunContext is warm, a guided ADLB replay at 8 ranks allocates what leaves
// it (trace, reproducer, application payloads), not what its world is made
// of. Bytes, because a single 8 KB slab per rank is one malloc — and mallocs,
// because a coroutine started per rank per world is 12 small objects (96 of
// them, 2.7 KB, at 8 ranks): the replay measures 56.00 and 5.77 KB, every run
// (74 and 6.19 KB when each world built its World, member list and RunError
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
// observes). It measures 1.55 KB in 53.4 mallocs, every run; a fresh World,
// result and expansion per replay measure 2.14 KB in 73.5, and a fresh trace
// and reproducer besides 7.01 KB.
func TestWarmExploreAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const warm, replays, budgetKB, budgetMallocs = 40, 300, 1.8, 60
	cfg := &ExplorerConfig{Procs: 8, Program: adlb.Program(adlb.DriverConfig{}), MixingBound: 2}
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
	perReplayKB := float64(after.TotalAlloc-before.TotalAlloc) / replays / 1024
	perReplayMallocs := float64(after.Mallocs-before.Mallocs) / replays
	t.Logf("warm ADLB p=8 k=2 lease: %.2f KB, %.2f mallocs per replay", perReplayKB, perReplayMallocs)
	if perReplayKB > budgetKB {
		t.Fatalf("a replay in a warm lease allocates %.2f KB (budget %.1f KB)", perReplayKB, budgetKB)
	}
	if perReplayMallocs > budgetMallocs {
		t.Fatalf("a replay in a warm lease makes %.1f allocations (budget %d)", perReplayMallocs, budgetMallocs)
	}
}
