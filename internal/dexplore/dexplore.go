// Package dexplore is the local schedule generator: it partitions the
// epoch-decision depth-first search of internal/core into independent
// subtree tasks — a forced-decision prefix plus the frame's remaining mixing
// budget — and shares them among a pool of slots, each running guided replays
// in its own mpi.World. The merged report covers exactly the interleaving set
// core.Explorer covers, with deterministic counts and error reproducers
// regardless of scheduling; one slot, which keeps its whole stack from lease
// to lease, replays and reports in that explorer's discovery order.
//
// Scheduling is by subtree lease, the in-process case of what internal/dcoord
// does over a wire: one frontier under one mutex, from which a slot is granted
// a few subtrees and a replay budget (Frontier.Grant, the rule both engines
// run), explores them depth-first on its own core.RunContext for a time slice,
// and hands in a report delta. The stack it did not get to it keeps, as its
// next lease, unless another slot is waiting for work — then the older half
// rejoins the frontier — so each slot's search stays depth-first and the
// frontier small. The mutex is taken per slice, not per replay; between two
// replays a slot looks at three atomics. An in-process lease cannot be lost,
// so there is no expiry, no redelivery cap and no codec here.
//
// The frontier is periodically checkpointed to a JSON file (reusing the
// core.Decisions round-trip format) — the pending subtrees, the roots of the
// leases out and the merged report, one consistent cut under the mutex — so a
// killed exploration resumes without redoing completed subtrees; see
// Checkpoint, Cadence for when the cuts fall due (by the clock unless
// CheckpointEvery says a count) and CheckpointWriter for the order they are
// written in; this engine and the cluster coordinator hold one of each. A
// progress callback reports live throughput: interleavings/sec, frontier
// depth and busy slots.
//
// Cancellation is cooperative: MaxInterleavings is met exactly by the budgets
// of the leases out, StopOnFirstError (and Stop) end every lease after the
// replay it is in, and those replays are always counted.
package dexplore

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/core"
)

// Config configures an exploration.
type Config struct {
	// Explorer carries the exploration parameters (program, procs, clocks,
	// bounds); see core.ExplorerConfig.
	Explorer core.ExplorerConfig
	// Workers is the number of slots exploring leases concurrently; values
	// below 1 run one. Slot 0 runs on the caller's goroutine.
	Workers int
	// CheckpointPath, if non-empty, receives a frontier checkpoint
	// periodically (CheckpointEvery; at most one per returned lease) and once
	// more when exploration ends (complete, capped, or stopped).
	CheckpointPath string
	// CheckpointEvery, when positive, is the number of replays between
	// periodic checkpoint writes, and the most a lease runs before it is
	// merged while checkpointing — what a crash can lose per slot. 0 = one
	// write per DefaultCheckpointInterval, and a lease runs its time slice.
	CheckpointEvery int
	// Resume, if non-nil, seeds the exploration from a saved checkpoint
	// instead of performing the initial self-discovery run. The checkpoint's
	// recorded parameters must match Explorer's.
	Resume *Checkpoint
	// OnProgress, if non-nil, receives a throughput snapshot every
	// ProgressEvery during exploration.
	OnProgress func(Progress)
	// ProgressEvery is the progress-callback period (DefaultProgressEvery).
	ProgressEvery time.Duration
}

// Progress is a live exploration throughput snapshot.
type Progress struct {
	// Interleavings is the number of replays completed so far.
	Interleavings int
	// PerSecond is the mean completion rate since the exploration started.
	PerSecond float64
	// WindowPerSecond is the completion rate over the trailing rate window
	// (currently 10s). On long explorations the mean goes stale — an hour of
	// history swamps the last minute — so this is the "what is it doing right
	// now" number. Falls back to the mean until enough history accumulates.
	WindowPerSecond float64
	// WindowValid reports whether WindowPerSecond was actually measured over
	// the trailing window. False while there is no baseline observation yet
	// (the first snapshot, and any sub-second run): WindowPerSecond then
	// merely echoes the mean and should not be presented as a window rate.
	WindowValid bool
	// FrontierDepth is the number of pending subtrees: those waiting to be
	// leased, plus (in-process engine) those its slots held when each last
	// merged.
	FrontierDepth int
	// Busy is the number of slots currently holding a lease.
	Busy int
	// Elapsed is the wall time since the exploration started.
	Elapsed time.Duration
}

// Engine is the schedule generator. Create with New, run with
// Explore; Stop cancels cooperatively from any goroutine (including an
// OnInterleaving callback).
type Engine struct {
	cfg Config
	// slot is what every slot's RunContext replays under: cfg.Explorer with
	// observe as the per-replay callback, when cfg.Explorer has one.
	slot core.ExplorerConfig
	// maxRoots and slice are MaxLeaseRoots and LeaseSlice, and now is
	// time.Now: the clock of the slices, the checkpoint cadence and progress;
	// tests vary them before Explore.
	maxRoots int
	slice    time.Duration
	now      func() time.Time

	// ckp writes CheckpointPath (nothing without one).
	ckp *CheckpointWriter

	mu      sync.Mutex
	cond    *sync.Cond // slots wait here for a grant or the end
	cad     Cadence    // when a periodic cut falls due, on the clock
	front   Frontier[*core.SubtreeTask]
	holding [][]*core.SubtreeTask // per slot, the roots of the lease it holds
	report  *core.Report          // every lease merged so far
	unbuilt int                   // children the last lease only counted
	runErr  error                 // first fatal replay-harness error

	// What a slot looks at between two replays of a lease.
	halted    atomic.Bool  // Stop, StopOnFirstError or a fatal error: every lease ends
	waiting   atomic.Int32 // slots waiting for work: a slot that has some hands it back
	completed atomic.Int64 // replays completed so far; with a callback, the next result's Index

	cbMu sync.Mutex // serializes the OnInterleaving callback

	start time.Time
	rate  *RateTracker // owned by the progress-monitor goroutine
}

// New creates an engine. Like core.NewExplorer it panics on a config without
// a program or with a non-positive world size.
func New(cfg Config) *Engine {
	if cfg.Explorer.Procs < 1 {
		panic("dexplore: Config.Explorer.Procs must be >= 1")
	}
	if cfg.Explorer.Program == nil {
		panic("dexplore: Config.Explorer.Program must be set")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	e := &Engine{
		cfg:      cfg,
		slot:     cfg.Explorer,
		maxRoots: MaxLeaseRoots,
		slice:    LeaseSlice,
		now:      time.Now,
		ckp:      NewCheckpointWriter(cfg.CheckpointPath),
		cad:      NewCadence(cfg.CheckpointEvery),
		front:    Frontier[*core.SubtreeTask]{Max: cfg.Explorer.MaxInterleavings},
		holding:  make([][]*core.SubtreeTask, cfg.Workers),
		report:   &core.Report{},
		rate:     NewRateTracker(RateWindow),
	}
	if cfg.Explorer.OnInterleaving != nil {
		// Only a caller's callback needs every result numbered as it
		// completes, and any callback costs every replay its reproducer;
		// without one, release numbers a lease's errors.
		e.slot.OnInterleaving = e.observe
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

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

// Explore runs the exploration to completion (or cap, stop, resume
// exhaustion) and returns the merged coverage report.
func (e *Engine) Explore() (*core.Report, error) {
	e.start = e.now()
	e.cad.Begin(e.start)
	// The initial self-discovery run is a task like any other: alone in the
	// frontier, so it is leased first, and its expansion feeds the pool.
	e.front.Tasks = []*core.SubtreeTask{core.RootTask(&e.cfg.Explorer)}
	if ckp := e.cfg.Resume; ckp != nil {
		done, pending, err := ckp.Restore("", &e.cfg.Explorer)
		if err != nil {
			return nil, err
		}
		// A frontier that still holds the root task was cut before the root
		// completed; otherwise the root is done.
		e.report, e.front.Tasks = done, pending
		e.front.RootDone = !slices.ContainsFunc(pending, func(t *core.SubtreeTask) bool { return t.Decisions == nil })
		e.completed.Store(int64(done.Interleavings))
	}

	// Progress monitor. Stopped via doneCh before Explore returns. It is the
	// sole caller of snapshot(), so the rate tracker needs no lock.
	doneCh := make(chan struct{})
	var monitorWG sync.WaitGroup
	if e.cfg.OnProgress != nil {
		monitorWG.Add(1)
		go func() {
			defer monitorWG.Done()
			Monitor(e.cfg.ProgressEvery, doneCh, func() { e.cfg.OnProgress(e.snapshot()) })
		}()
	}

	// Slot 0 runs on the caller's goroutine: one slot starts no goroutine.
	var wg sync.WaitGroup
	for id := 1; id < len(e.holding); id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.runSlot(id)
		}()
	}
	e.runSlot(0)
	wg.Wait()
	close(doneCh)
	monitorWG.Wait()
	return e.finish()
}

// runSlot is one slot's life: take a lease, explore it on the loop the serial
// explorer runs, hand in what that added, until the end. The slot owns a
// RunContext, so per-replay tool state (hook stacks, clock buffers, the mpi
// runtime's pools) is recycled across every replay it runs. Explore returns
// when the lease's time slice has passed, the engine is halted, another slot
// is waiting for work, or — when checkpointing under an explicit
// CheckpointEvery — it has run that many replays, so that field bounds what a
// crash loses.
func (e *Engine) runSlot(id int) {
	rc := core.NewRunContext(&e.slot)
	every := e.leaseCap()
	count := e.slot.OnInterleaving == nil // observe counts the replays otherwise
	var stack []*core.SubtreeTask
	budget, final := 0, false
	for {
		if stack == nil {
			if stack, budget, final = e.acquire(id); stack == nil {
				return
			}
		}
		start, ran := e.now(), 0
		rep, left, unbuilt, err := rc.Explore(stack, budget, final, func() bool {
			ran++
			if count {
				e.completed.Add(1)
			}
			return e.halted.Load() || e.waiting.Load() > 0 || ran >= every || e.now().Sub(start) >= e.slice
		})
		stack, budget, final = e.release(id, budget, rep, left, unbuilt, err)
	}
}

// leaseCap is the most replays a lease may run before it is merged: the
// explicit CheckpointEvery, which so bounds what a crash loses per slot, and no
// bound under the default cadence — there a lease's time slice is the bound.
func (e *Engine) leaseCap() int {
	if e.cfg.CheckpointPath == "" || e.cad.Every == 0 {
		return math.MaxInt
	}
	return e.cad.Every
}

// lastLocked is Frontier.Last, except while checkpointing: a resume continues
// from the frontier, which must then hold every child. Caller holds e.mu.
func (e *Engine) lastLocked() bool {
	return e.cfg.CheckpointPath == "" && e.front.Last(e.report.Interleavings)
}

// acquire blocks until slot id is granted a lease, and returns its roots as a
// stack for Explore to consume (the slot's holding entry stays whole for
// checkpoints), its budget and whether it is the last lease, or nil at the
// end: the engine is halted, or nothing is leased and no work (or no cap)
// remains.
func (e *Engine) acquire(id int) (stack []*core.SubtreeTask, budget int, final bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for !e.halted.Load() {
		merged := e.report.Interleavings
		if roots, budget := e.front.Grant(len(e.holding), e.maxRoots, merged); roots != nil {
			e.holding[id] = roots
			return slices.Clone(roots), budget, e.lastLocked()
		}
		if e.front.Finishable(merged, false) {
			break
		}
		// A slot refused because the leases out hold all the cap has left is
		// not waiting for work: subtrees handed back would not help it.
		starved := e.front.Room(merged) > 0
		if starved {
			e.waiting.Add(1)
		}
		e.cond.Wait()
		if starved {
			e.waiting.Add(-1)
		}
	}
	return nil, 0, false
}

// release ends slot id's lease: what it explored merges into the report and
// every waiting slot looks again. Of the stack it left, the slot keeps what
// nobody else needs, as its next lease on a fresh share of the cap — all of
// it, or the deeper half while a slot is waiting for work (the older half
// holds the larger subtrees) — so its search stays depth-first and the
// frontier small; the rest, everything once the engine is halted or the cap
// has no room, rejoins the frontier. unbuilt counts the children the lease's
// final replay only counted. An in-process lease cannot be lost or
// duplicated, so there is nothing to vet.
func (e *Engine) release(id, budget int, rep *core.Report, left []*core.SubtreeTask, unbuilt int, err error) (keep []*core.SubtreeTask, renewed int, final bool) {
	var ckp *Checkpoint
	e.mu.Lock()
	e.holding[id] = nil
	e.front.Release(budget)
	if err != nil {
		if e.runErr == nil {
			e.runErr = err
		}
		e.halted.Store(true)
	} else {
		e.front.RootDone = e.front.RootDone || rep.FirstTrace != nil
		if e.slot.OnInterleaving == nil {
			// An unobserved error carries its index within the lease, and a
			// lease merges as one run of consecutive replays: one slot so
			// keeps depth-first discovery order, and N keep indexes unique.
			for _, r := range rep.Errors {
				r.Index += e.report.Interleavings
			}
		}
		e.report.Merge(rep)
		e.unbuilt += unbuilt
		if e.cfg.Explorer.StopOnFirstError && len(rep.Errors) > 0 {
			e.halted.Store(true)
		}
		give := 0
		switch {
		case e.halted.Load():
			give = len(left)
		case e.waiting.Load() > 0:
			give = (len(left) + 1) / 2
		}
		if give < len(left) {
			if b, ok := e.front.Renew(len(e.holding), e.report.Interleavings); ok {
				keep, renewed, final = left[give:], b, e.lastLocked()
				e.holding[id] = slices.Clone(keep)
			} else {
				give = len(left)
			}
		}
		e.front.Tasks = append(e.front.Tasks, left[:give]...)
		if e.cfg.CheckpointPath != "" && e.cad.Due(rep.Interleavings, e.now()) {
			ckp = e.checkpointLocked()
		}
	}
	e.cond.Broadcast()
	e.mu.Unlock()
	if ckp != nil {
		e.ckp.Periodic(ckp)
		e.mu.Lock()
		e.cad.Saved()
		e.mu.Unlock()
	}
	return keep, renewed, final
}

// observe is every slot's per-replay callback when the caller configured an
// OnInterleaving. It counts the replay and numbers the result — Index is
// unique and in completion order, continuing a resumed run's count — and
// passes it on: serialized, and outside the engine's mutex so the callback
// may call Stop.
func (e *Engine) observe(res *core.InterleavingResult) {
	e.cbMu.Lock()
	defer e.cbMu.Unlock()
	res.Index = int(e.completed.Add(1)) - 1
	e.cfg.Explorer.OnInterleaving(res)
}

// checkpointLocked cuts a checkpoint: the roots of every lease out — what
// such a lease has explored since is not merged yet, so resuming re-runs it
// whole, at-least-once coverage of every subtree — then the frontier, and the
// merged report. Caller holds e.mu.
func (e *Engine) checkpointLocked() *Checkpoint {
	var frontier []*core.SubtreeTask
	for _, roots := range e.holding {
		frontier = append(frontier, roots...)
	}
	frontier = append(frontier, e.front.Tasks...)
	return NewCheckpoint("", &e.cfg.Explorer, e.report, frontier)
}

// finish seals the merged report — errors keep discovery order on one slot,
// and sort by reproducer on more, whose completion order is scheduling's —
// and writes the final checkpoint. Called after the pool has joined.
func (e *Engine) finish() (*core.Report, error) {
	e.mu.Lock()
	if e.runErr != nil {
		e.mu.Unlock()
		return nil, e.runErr
	}
	e.report.Seal(&e.cfg.Explorer, len(e.front.Tasks) > 0 || e.unbuilt > 0)
	if len(e.holding) > 1 {
		e.report.SortErrors()
	}
	var ckp *Checkpoint
	if e.cfg.CheckpointPath != "" {
		ckp = e.checkpointLocked()
	}
	e.mu.Unlock()
	if ckp != nil {
		if err := e.ckp.Final(ckp); err != nil {
			return nil, fmt.Errorf("dexplore: writing final checkpoint: %w", err)
		}
	}
	return e.report, nil
}

// snapshot builds a Progress. Called only from the monitor goroutine, which
// solely owns the rate tracker.
func (e *Engine) snapshot() Progress {
	p := e.rate.Snapshot(e.start, e.now(), int(e.completed.Load()))
	e.mu.Lock()
	p.FrontierDepth, p.Busy = len(e.front.Tasks), e.front.held
	for _, roots := range e.holding {
		p.FrontierDepth += len(roots)
	}
	e.mu.Unlock()
	return p
}
