package dexplore

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/workloads/matmul"
)

// liveCheckpoint cuts a checkpoint of a running engine, as release does for
// a periodic write.
func (e *Engine) liveCheckpoint() *Checkpoint {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked()
}

// TestSnapshotDuringExploration: live snapshots taken while a 4-slot engine
// is actively leasing, replaying and handing subtrees back never lose a task.
// A grant moves its roots from the frontier to the slot's holding entry, and
// a release merges the delta and moves the leftover stack back — or into the
// slot's next holding entry — each as one step under the engine's mutex, the
// mutex a snapshot is cut under, so a snapshot can never observe a subtree in
// neither place, or counted and still pending. This drives that guarantee end to end: for every mid-run snapshot,
// the interleavings already counted in the snapshot plus the ones reachable
// from its frontier must cover exactly what the uninterrupted run covers.
// Under -race this also exercises the lock protocol itself.
func TestSnapshotDuringExploration(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	full := runParallel(t, cfg, 4)
	if full.rep.Interleavings < 20 {
		t.Fatalf("fixture too small: %d interleavings", full.rep.Interleavings)
	}

	// Stretch each (memoized) replay slightly so the snapshot loop below
	// lands many cuts mid-exploration, between leases.
	scfg := cfg
	scfg.Runner = func(c *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		time.Sleep(50 * time.Microsecond)
		return memo.Run(c, d)
	}
	// Explore seeds the frontier before the pool starts, outside the mutex;
	// snapshots are only legal after that point (the engine itself snapshots
	// from release()). The root's OnInterleaving callback gates the snapshot
	// loop.
	rootDone := make(chan struct{})
	var rootOnce sync.Once
	scfg.OnInterleaving = func(*core.InterleavingResult) { rootOnce.Do(func() { close(rootDone) }) }
	e := New(Config{Explorer: scfg, Workers: 4})
	type outcome struct {
		rep *core.Report
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		rep, err := e.Explore()
		ch <- outcome{rep: rep, err: err}
	}()

	<-rootDone
	var snaps []*Checkpoint
	var out outcome
collect:
	for {
		select {
		case out = <-ch:
			break collect
		default:
			snaps = append(snaps, e.liveCheckpoint())
			runtime.Gosched()
		}
	}
	if out.err != nil {
		t.Fatal(out.err)
	}
	if got, want := out.rep.Interleavings, full.rep.Interleavings; got != want {
		t.Fatalf("run under concurrent snapshots explored %d interleavings, want %d", got, want)
	}

	// Keep the genuinely mid-run snapshots: work both completed and pending.
	var mid []*Checkpoint
	for _, s := range snaps {
		if s.Interleavings > 0 && s.Interleavings < full.rep.Interleavings && len(s.Frontier) > 0 {
			mid = append(mid, s)
		}
	}
	if len(mid) == 0 {
		t.Fatalf("no mid-run snapshot caught (%d snapshots total): fixture finished too fast", len(snaps))
	}

	for _, idx := range []int{0, len(mid) / 2, len(mid) - 1} {
		snap := mid[idx]
		resumed := map[string]bool{}
		rcfg := cfg
		rcfg.OnInterleaving = func(res *core.InterleavingResult) { resumed[res.Decisions.String()] = true }
		rrep, err := New(Config{Explorer: rcfg, Workers: 4, Resume: snap}).Explore()
		if err != nil {
			t.Fatalf("resume from snapshot at %d interleavings: %v", snap.Interleavings, err)
		}
		// At-least-once: completions counted in the snapshot plus resumed
		// replays must reach the uninterrupted total.
		if rrep.Interleavings < full.rep.Interleavings {
			t.Errorf("snapshot at %d: resumed total %d < full %d (task lost between frontier and lease?)",
				snap.Interleavings, rrep.Interleavings, full.rep.Interleavings)
		}
		// Every interleaving the resume did NOT cover must be accounted for by
		// a completion before the snapshot — there were exactly
		// snap.Interleavings of those.
		missing := 0
		for sig := range full.sigs {
			if !resumed[sig] {
				missing++
			}
		}
		if missing > snap.Interleavings {
			t.Errorf("snapshot at %d: %d interleavings neither completed before the snapshot nor reachable from its frontier",
				snap.Interleavings, missing)
		}
		// And nothing outside the uninterrupted set ever appears.
		for sig := range resumed {
			if !full.sigs[sig] {
				t.Errorf("snapshot at %d: resumed interleaving %s not in the uninterrupted run", snap.Interleavings, sig)
			}
		}
	}
}
