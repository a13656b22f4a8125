package dexplore

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/mpi"
	"dampi/workloads/matmul"
)

// Stop requests cooperative cancellation: no new lease is granted, every
// slot finishes the replay it is in and hands its lease back, and Explore
// returns the partial report (with a final checkpoint if CheckpointPath is
// set). Safe to call from any goroutine, any number of times.
func (e *Engine) Stop() {
	e.mu.Lock()
	e.halted.Store(true)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// checkGoroutinesDrained polls until the goroutine count returns to the
// pre-exploration baseline: workers, rank goroutines of every in-flight
// mpi.World, and the progress monitor must all have exited.
func checkGoroutinesDrained(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStopOnFirstErrorParallel: under 4 workers the engine stops after the
// first failing interleaving drains, reports its reproducer, and leaks no
// goroutines. The reproducer must replay to the same error.
func TestStopOnFirstErrorParallel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cfg := core.ExplorerConfig{
		Procs:            3,
		MixingBound:      core.Unbounded,
		Program:          fanInError,
		StopOnFirstError: true,
	}
	rep, err := New(Config{Explorer: cfg, Workers: 4}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Errors) == 0 {
		t.Fatal("no error found")
	}
	checkGoroutinesDrained(t, baseline)

	// In-flight replays drain and are counted, so a few extra interleavings
	// beyond the erroring one are fine — unbounded continuation is not.
	if rep.Interleavings > 16 {
		t.Errorf("exploration ran on after the first error: %d interleavings", rep.Interleavings)
	}
	first := rep.Errors[0]
	_, res, err := core.ExecuteRun(&core.ExplorerConfig{Procs: 3, Program: fanInError}, first.Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatalf("reproducer %s did not reproduce the error", first.Decisions)
	}
	if res.Err.Error() != first.Err.Error() {
		t.Errorf("reproducer error = %q, want %q", res.Err, first.Err)
	}
}

// TestMaxInterleavingsParallel: the cap is exact — the budgets of the leases
// out never exceed what the cap has left, so the engine stops at exactly
// min(cap, space) replays and says Capped exactly when the serial explorer
// does, including at cap = space, where nothing was left to cut off
// (internal/dcoord's TestClusterCapIsExact table) — and the pool drains.
func TestMaxInterleavingsParallel(t *testing.T) {
	baseline := runtime.NumGoroutine()
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 8, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	const space = 64
	if got := runSerial(t, base).rep.Interleavings; got != space {
		t.Fatalf("fixture explores %d interleavings, the caps below assume %d", got, space)
	}
	for _, max := range []int{1, 2, 7, 64, 65} {
		capped := base
		capped.MaxInterleavings = max
		serial := runSerial(t, capped).rep
		for _, workers := range []int{1, 3} {
			rep, err := New(Config{Explorer: capped, Workers: workers}).Explore()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Interleavings != min(max, space) || rep.Capped != serial.Capped {
				t.Errorf("cap %d, %d workers: %d interleavings capped=%v, want %d capped=%v",
					max, workers, rep.Interleavings, rep.Capped, min(max, space), serial.Capped)
			}
		}
	}
	checkGoroutinesDrained(t, baseline)
}

// TestStopFromCallback: Stop is safe from inside the OnInterleaving
// callback and ends the exploration with a partial report.
func TestStopFromCallback(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var eng *Engine
	var n atomic.Int32
	cfg := core.ExplorerConfig{
		Procs:   8,
		Program: matmul.Program(matmul.Config{}),
		OnInterleaving: func(res *core.InterleavingResult) {
			if n.Add(1) == 3 {
				eng.Stop()
			}
		},
	}
	eng = New(Config{Explorer: cfg, Workers: 4})
	rep, err := eng.Explore()
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutinesDrained(t, baseline)
	if rep.Interleavings < 3 {
		t.Errorf("stopped before the third interleaving: %d", rep.Interleavings)
	}
	// 3 callbacks + at most the replay each other slot was in at the stop.
	if rep.Interleavings > 3+3 {
		t.Errorf("exploration ran on after Stop: %d interleavings", rep.Interleavings)
	}
}

// TestCallbackOncePerReplay: OnInterleaving runs serialized, once per replay,
// and the indexes it sees are a permutation of 0..N-1 whichever slots ran
// what.
func TestCallbackOncePerReplay(t *testing.T) {
	memo := newMemoRunner()
	var inside atomic.Int32
	seen := map[string]int{}
	var indexes []int
	cfg := core.ExplorerConfig{
		Procs:   6,
		Program: matmul.Program(matmul.Config{}),
		Runner:  memo.Run,
		OnInterleaving: func(res *core.InterleavingResult) {
			if inside.Add(1) != 1 {
				t.Error("OnInterleaving entered concurrently")
			}
			seen[res.Decisions.String()]++
			indexes = append(indexes, res.Index)
			inside.Add(-1)
		},
	}
	e := New(Config{Explorer: cfg, Workers: 4})
	e.slice = 0 // a lease per replay: as many merges and hand-offs between slots as there can be
	rep, err := e.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Interleavings < 20 {
		t.Fatalf("fixture too small: %d interleavings", rep.Interleavings)
	}
	if len(seen) != rep.Interleavings || len(indexes) != rep.Interleavings {
		t.Errorf("%d callbacks over %d distinct interleavings, the report has %d", len(indexes), len(seen), rep.Interleavings)
	}
	slices.Sort(indexes)
	for i, idx := range indexes {
		if idx != i {
			t.Fatalf("sorted indexes[%d] = %d, want a permutation of 0..%d", i, idx, len(indexes)-1)
		}
	}
}

// TestUnobservedErrorIndexes: without an OnInterleaving nothing numbers a
// result as it completes, and a lease's errors are numbered when it merges.
// One slot keeps the serial explorer's indexes exactly, over a lease per
// replay as over one long lease; more slots keep them unique in 0..N-1. The
// replay count Progress reads ends equal to the report.
func TestUnobservedErrorIndexes(t *testing.T) {
	// Rank 0 takes one wildcard message from each other rank and fails, after
	// the last, unless rank 1's came first: most orders fail.
	rankOneFirst := func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			return p.Send(0, 0, nil, c)
		}
		first := -1
		for i := 1; i < p.Size(); i++ {
			_, st, err := p.Recv(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if first < 0 {
				first = st.Source
			}
		}
		if first != 1 {
			return fmt.Errorf("rank %d came first", first)
		}
		return nil
	}
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: rankOneFirst}
	serial, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Errors) < 2 {
		t.Fatalf("degenerate fixture: %d errors", len(serial.Errors))
	}
	numbered := func(rep *core.Report) []string {
		var out []string
		for _, e := range rep.Errors {
			out = append(out, fmt.Sprintf("#%d %v: %v", e.Index, e.Decisions, e.Err))
		}
		return out
	}
	for _, slots := range []int{1, 3} {
		for _, slice := range []time.Duration{0, LeaseSlice} {
			e := New(Config{Explorer: cfg, Workers: slots})
			e.slice = slice
			rep, err := e.Explore()
			if err != nil {
				t.Fatal(err)
			}
			if n := int(e.completed.Load()); n != rep.Interleavings || n != serial.Interleavings {
				t.Errorf("%d slots, slice %v: %d replays counted, %d reported, want %d", slots, slice, n, rep.Interleavings, serial.Interleavings)
			}
			if slots == 1 {
				if got, want := numbered(rep), numbered(serial); !slices.Equal(got, want) {
					t.Errorf("one slot, slice %v: errors\n  %v\nserial explorer:\n  %v", slice, got, want)
				}
				continue
			}
			seen := map[int]bool{}
			for _, r := range rep.Errors {
				if r.Index < 0 || r.Index >= rep.Interleavings || seen[r.Index] {
					t.Errorf("%d slots, slice %v: error index %d repeated or outside 0..%d", slots, slice, r.Index, rep.Interleavings-1)
				}
				seen[r.Index] = true
			}
			if len(rep.Errors) != len(serial.Errors) {
				t.Errorf("%d slots, slice %v: %d errors, serial %d", slots, slice, len(rep.Errors), len(serial.Errors))
			}
		}
	}
}

// TestProgressCallback: the monitor reports live throughput while workers
// run, and stops with them.
func TestProgressCallback(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var mu sync.Mutex
	var progress []Progress
	// Unbounded and capped: tens of milliseconds of work, so the 1 ms ticker
	// fires on a loaded host (the k = 0 space is 64 replays, ~3 ms).
	cfg := core.ExplorerConfig{Procs: 8, MixingBound: core.Unbounded, MaxInterleavings: 1500, Program: matmul.Program(matmul.Config{})}
	rep, err := New(Config{
		Explorer:      cfg,
		Workers:       2,
		ProgressEvery: time.Millisecond,
		OnProgress: func(p Progress) {
			mu.Lock()
			progress = append(progress, p)
			mu.Unlock()
		},
	}).Explore()
	if err != nil {
		t.Fatal(err)
	}
	checkGoroutinesDrained(t, baseline)
	mu.Lock()
	defer mu.Unlock()
	if len(progress) == 0 {
		t.Fatal("no progress snapshots delivered")
	}
	last := progress[len(progress)-1]
	if last.Elapsed <= 0 {
		t.Error("progress snapshot without elapsed time")
	}
	if last.Interleavings < 1 || last.Interleavings > rep.Interleavings {
		t.Errorf("progress interleavings = %d, final report %d", last.Interleavings, rep.Interleavings)
	}
	if last.PerSecond <= 0 {
		t.Error("progress snapshot without a throughput rate")
	}
	if last.Busy < 0 || last.Busy > 2 {
		t.Errorf("busy workers = %d with a pool of 2", last.Busy)
	}
}
