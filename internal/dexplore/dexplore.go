// Package dexplore is the parallel schedule generator: it partitions the
// epoch-decision depth-first search of internal/core into independent
// subtree tasks — a forced-decision prefix plus the frame's remaining mixing
// budget — and feeds them to a worker pool where each worker runs guided
// replays in its own mpi.World. Each worker accounts what it completes in
// its own core.Report; the partial reports merge into one covering exactly
// the interleaving set the serial explorer covers — core.Explorer is the
// one-worker, one-stack driver of the same core.SubtreeTask.Expand and the
// same core.Report accounting — with deterministic counts and error
// reproducers regardless of worker scheduling.
//
// Scheduling is work-stealing: each worker owns a DFS deque, pushes its own
// expansions at the deep end and pops them back LIFO, so the steady state
// touches only the worker's own (uncontended) lock plus a handful of engine
// atomics. A worker that runs dry steals the oldest — shallowest, and
// therefore largest — half of a victim's deque. There is no engine-wide
// mutex and no per-completion broadcast; idle workers park on a condition
// variable and are woken only when new work actually appears.
//
// The frontier of pending tasks is periodically checkpointed to a JSON file
// (reusing the core.Decisions round-trip format) via a brief stop-the-world
// over the deques, so a killed exploration resumes without redoing completed
// subtrees; see Checkpoint. A progress callback reports live throughput:
// interleavings/sec, frontier depth and busy workers.
//
// Cancellation is cooperative: MaxInterleavings stops issuing new replays
// once the cap is reached, StopOnFirstError (and Stop) stop after the
// current replays drain, and in-flight results are always counted.
package dexplore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/core"
)

// Config configures a parallel exploration.
type Config struct {
	// Explorer carries the exploration parameters (program, procs, clocks,
	// bounds); see core.ExplorerConfig.
	Explorer core.ExplorerConfig
	// Workers is the worker-pool size; values below 1 run a pool of one.
	Workers int
	// CheckpointPath, if non-empty, receives a frontier checkpoint every
	// CheckpointEvery completed replays and once more when exploration ends
	// (complete, capped, or stopped).
	CheckpointPath string
	// CheckpointEvery is the number of completed replays between periodic
	// checkpoint writes. Default 32.
	CheckpointEvery int
	// Resume, if non-nil, seeds the exploration from a saved checkpoint
	// instead of performing the initial self-discovery run. The checkpoint's
	// recorded parameters must match Explorer's.
	Resume *Checkpoint
	// OnProgress, if non-nil, receives a throughput snapshot every
	// ProgressEvery during exploration.
	OnProgress func(Progress)
	// ProgressEvery is the progress-callback period. Default 1s.
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
	// FrontierDepth is the number of pending (unstarted) subtree tasks.
	FrontierDepth int
	// Busy is the number of workers currently executing a replay.
	Busy int
	// Elapsed is the wall time since the exploration started.
	Elapsed time.Duration
}

// Engine is the parallel schedule generator. Create with New, run with
// Explore; Stop cancels cooperatively from any goroutine (including an
// OnInterleaving callback).
type Engine struct {
	cfg Config
	ws  []*worker

	// Hot-path coordination is atomics only; there is no engine-wide mutex.
	issued    atomic.Int64 // replay tickets taken (the MaxInterleavings budget)
	completed atomic.Int64 // replays merged; drives Index and checkpoint cadence
	pending   atomic.Int64 // tasks in deques or in flight; 0 means drained
	stopped   atomic.Bool  // Stop() or StopOnFirstError fired
	failed    atomic.Bool  // fatal replay-harness error recorded in runErr

	errMu  sync.Mutex
	runErr error

	// Workers park here after a fruitless steal sweep. idlers is maintained
	// under idleMu but read as an atomic hint by completers, so the
	// work-plentiful path never touches idleMu at all (see complete).
	idleMu   sync.Mutex
	idleCond *sync.Cond
	idlers   atomic.Int32

	ckpMu sync.Mutex // serializes periodic checkpoint snapshot+save pairs
	cbMu  sync.Mutex // serializes the OnInterleaving callback

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
	e := &Engine{cfg: cfg, rate: NewRateTracker(RateWindow)}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	if e.cfg.CheckpointEvery <= 0 {
		e.cfg.CheckpointEvery = 32
	}
	if e.cfg.ProgressEvery <= 0 {
		e.cfg.ProgressEvery = time.Second
	}
	e.idleCond = sync.NewCond(&e.idleMu)
	for i := 0; i < workers; i++ {
		e.ws = append(e.ws, &worker{id: i, e: e})
	}
	return e
}

// Stop requests cooperative cancellation: no new replays are issued,
// in-flight replays drain and are counted, and Explore returns the partial
// report (with a final checkpoint if CheckpointPath is set). Safe to call
// from any goroutine, any number of times.
func (e *Engine) Stop() {
	e.stopped.Store(true)
	e.wakeAll()
}

// Explore runs the exploration to completion (or cap, stop, resume
// exhaustion) and returns the merged coverage report.
func (e *Engine) Explore() (*core.Report, error) {
	e.start = time.Now()
	// The initial self-discovery run is a task like any other: alone in the
	// frontier, so it runs first, and its expansion feeds the pool.
	frontier := []*core.SubtreeTask{core.RootTask(&e.cfg.Explorer)}
	if ckp := e.cfg.Resume; ckp != nil {
		done, pending, err := ckp.Restore("", &e.cfg.Explorer)
		if err != nil {
			return nil, err
		}
		// What the checkpoint had counted starts out in worker 0's report.
		e.ws[0].rep = *done
		e.issued.Store(int64(done.Interleavings))
		e.completed.Store(int64(done.Interleavings))
		frontier = pending
	}
	e.scatter(frontier)

	// Progress monitor. Stopped via doneCh before Explore returns. It is the
	// sole caller of snapshot(), so the rate tracker needs no lock.
	doneCh := make(chan struct{})
	var monitorWG sync.WaitGroup
	if e.cfg.OnProgress != nil {
		monitorWG.Add(1)
		go func() {
			defer monitorWG.Done()
			ticker := time.NewTicker(e.cfg.ProgressEvery)
			defer ticker.Stop()
			for {
				select {
				case <-doneCh:
					return
				case <-ticker.C:
					e.cfg.OnProgress(e.snapshot())
				}
			}
		}()
	}

	var wg sync.WaitGroup
	for _, w := range e.ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			e.runWorker(w)
		}(w)
	}
	wg.Wait()
	close(doneCh)
	monitorWG.Wait()

	e.errMu.Lock()
	err := e.runErr
	e.errMu.Unlock()
	if err != nil {
		return nil, err
	}
	return e.finish()
}

// scatter seeds tasks round-robin across the worker deques (the root task, or
// a resumed frontier — before the pool starts, so plain pushes).
func (e *Engine) scatter(ts []*core.SubtreeTask) {
	if len(ts) == 0 {
		return
	}
	e.pending.Add(int64(len(ts)))
	n := len(e.ws)
	for i, w := range e.ws {
		var chunk []*core.SubtreeTask
		for j := i; j < len(ts); j += n {
			chunk = append(chunk, ts[j])
		}
		w.push(chunk)
	}
}

// runWorker is one worker's loop: pop (or steal), replay, merge, until no
// work remains or cancellation fires. Each worker owns a RunContext so
// per-replay tool state (hook stacks, clock buffers, mailbox size hints,
// envelope/payload freelists) is recycled across the replays it runs instead
// of rebuilt from scratch.
func (e *Engine) runWorker(w *worker) {
	if w.rc == nil {
		w.rc = core.NewRunContext(&e.cfg.Explorer)
	}
	for {
		t := e.next(w)
		if t == nil {
			return
		}
		trace, res, err := w.rc.Run(t.Decisions)
		e.complete(w, t, trace, res, err)
	}
}

// next returns the worker's next task: its own deepest pending task, or a
// stolen one when its deque is dry. It parks while other workers still hold
// in-flight tasks (their expansions may produce new work) and returns nil
// when the exploration is over: cancellation, the interleaving cap, or
// global completion.
func (e *Engine) next(w *worker) *core.SubtreeTask {
	for {
		if e.done() {
			return nil
		}
		t := w.popOwn()
		if t == nil {
			t = e.steal(w)
		}
		if t != nil {
			if !e.takeTicket() {
				// Budget exhausted after the pop: put the task back so the
				// final checkpoint still covers it, and wake parked workers
				// so they observe the cap and exit.
				w.unpop(t)
				e.wakeAll()
				return nil
			}
			return t
		}
		if e.pending.Load() == 0 {
			e.wakeAll()
			return nil
		}
		// Park. The idlers increment is sequentially consistent with a
		// completer's idlers check: either the completer sees us (and takes
		// idleMu, serializing its broadcast against our Wait), or our
		// increment came later in the total order than its deque publish and
		// the re-scan below finds the new work.
		e.idleMu.Lock()
		e.idlers.Add(1)
		if !e.done() && e.pending.Load() > 0 && !e.anyQueued() {
			e.idleCond.Wait()
		}
		e.idlers.Add(-1)
		e.idleMu.Unlock()
	}
}

// done reports a terminal state: cancellation, fatal error, or cap.
func (e *Engine) done() bool {
	if e.stopped.Load() || e.failed.Load() {
		return true
	}
	max := e.cfg.Explorer.MaxInterleavings
	return max > 0 && e.issued.Load() >= int64(max)
}

// anyQueued scans the deque size hints without locking.
func (e *Engine) anyQueued() bool {
	for _, w := range e.ws {
		if w.size.Load() > 0 {
			return true
		}
	}
	return false
}

// steal sweeps the other workers (starting past the thief, so victims are
// spread) and takes half of the first non-empty deque found.
func (e *Engine) steal(thief *worker) *core.SubtreeTask {
	n := len(e.ws)
	for i := 1; i < n; i++ {
		v := e.ws[(thief.id+i)%n]
		if v.size.Load() == 0 {
			continue
		}
		if t := v.stealInto(thief); t != nil {
			return t
		}
	}
	return nil
}

// takeTicket claims one replay against the MaxInterleavings budget.
func (e *Engine) takeTicket() bool {
	max := e.cfg.Explorer.MaxInterleavings
	if max <= 0 {
		e.issued.Add(1)
		return true
	}
	for {
		cur := e.issued.Load()
		if cur >= int64(max) {
			return false
		}
		if e.issued.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// wakeAll wakes every parked worker. Cold path only: completion with fresh
// work checks the idlers hint first and skips this entirely when nobody is
// parked.
func (e *Engine) wakeAll() {
	e.idleMu.Lock()
	e.idleCond.Broadcast()
	e.idleMu.Unlock()
}

// complete accounts one finished replay in the worker's own report, pushes
// the subtree's children onto the worker's own deque, and triggers
// cancellation, wakeups and checkpoints as needed. No shared lock is taken
// unless workers are parked or a checkpoint is due.
func (e *Engine) complete(w *worker, t *core.SubtreeTask, trace *core.RunTrace, res *core.InterleavingResult, err error) {
	if err != nil {
		e.errMu.Lock()
		if e.runErr == nil {
			e.runErr = err
		}
		e.errMu.Unlock()
		e.failed.Store(true)
		w.mu.Lock()
		w.current = nil
		w.mu.Unlock()
		e.wakeAll()
		return
	}

	var ex *core.Expansion
	if !res.Deadlock {
		// Expansion builds decision clones; keep it outside any lock.
		ex = t.Expand(&e.cfg.Explorer, trace)
	}
	children := 0
	if ex != nil {
		children = len(ex.Children)
	}
	// Publish the children to pending before they become stealable, so the
	// pending count never undershoots: a thief finishing a stolen child must
	// not drive pending to zero while its sibling still sits in our deque.
	if children > 0 {
		e.pending.Add(int64(children))
	}
	c := e.completed.Add(1)
	res.Index = int(c) - 1
	var root *core.RunTrace
	if t.Decisions == nil {
		root = trace
	}

	w.mu.Lock()
	w.current = nil
	w.rep.Add(res, ex, root, t.Sample != nil)
	if ex != nil {
		w.tasks = append(w.tasks, ex.Children...)
		w.size.Store(int32(len(w.tasks) - w.head))
	}
	w.mu.Unlock()

	if e.cfg.Explorer.StopOnFirstError && res.Err != nil {
		e.stopped.Store(true)
		e.wakeAll()
	}
	if rem := e.pending.Add(-1); rem == 0 {
		e.wakeAll()
	} else if children > 0 && e.idlers.Load() != 0 {
		e.wakeAll()
	}

	if path := e.cfg.CheckpointPath; path != "" && c%int64(e.cfg.CheckpointEvery) == 0 {
		// Best-effort: a failed periodic write must not kill the search.
		e.ckpMu.Lock()
		_ = e.snapshotCheckpoint().Save(path)
		e.ckpMu.Unlock()
	}
	if cb := e.cfg.Explorer.OnInterleaving; cb != nil {
		// Serialized, and outside every engine lock so the callback may call
		// Stop.
		e.cbMu.Lock()
		cb(res)
		e.cbMu.Unlock()
	}
}

// gatherLocked merges every worker's partial report into a fresh one. Caller
// holds all worker mutexes (stop-the-world) or has joined the pool.
func (e *Engine) gatherLocked() *core.Report {
	rep := &core.Report{}
	for _, w := range e.ws {
		rep.Merge(&w.rep)
	}
	return rep
}

// finish merges and seals the report — completion order is
// scheduling-dependent, so errors sort by their reproducer signature — and
// writes the final checkpoint. Called after the pool has joined; the worker locks are taken
// anyway so a straggling monitor snapshot stays race-free.
func (e *Engine) finish() (*core.Report, error) {
	for _, w := range e.ws {
		w.mu.Lock()
	}
	rep := e.gatherLocked()
	var leftovers []*core.SubtreeTask
	for _, w := range e.ws {
		leftovers = append(leftovers, w.tasks[w.head:]...)
	}
	for i := len(e.ws) - 1; i >= 0; i-- {
		e.ws[i].mu.Unlock()
	}

	// The hint table is shared by every worker; its counters are atomics, so
	// Seal's read after the pool has joined is race-free.
	rep.Seal(&e.cfg.Explorer, len(leftovers) > 0)
	rep.SortErrors()
	if e.cfg.CheckpointPath != "" {
		ckp := NewCheckpoint("", &e.cfg.Explorer, rep, leftovers)
		if err := ckp.Save(e.cfg.CheckpointPath); err != nil {
			return nil, fmt.Errorf("dexplore: writing final checkpoint: %w", err)
		}
	}
	return rep, nil
}

// snapshot builds a Progress. Called only from the monitor goroutine, which
// solely owns the rate tracker; worker counters are read one lock at a time
// (a slightly torn total is fine for a throughput display).
func (e *Engine) snapshot() Progress {
	now := time.Now()
	elapsed := now.Sub(e.start)
	total := int(e.completed.Load())
	depth, busy := 0, 0
	for _, w := range e.ws {
		depth += int(w.size.Load())
		w.mu.Lock()
		if w.current != nil {
			busy++
		}
		w.mu.Unlock()
	}
	mean := 0.0
	if s := elapsed.Seconds(); s > 0 {
		mean = float64(total) / s
	}
	window, ok := e.rate.Rate(now, total)
	if !ok {
		window = mean
	}
	e.rate.Observe(now, total)
	return Progress{
		Interleavings:   total,
		PerSecond:       mean,
		WindowPerSecond: window,
		WindowValid:     ok,
		FrontierDepth:   depth,
		Busy:            busy,
		Elapsed:         elapsed,
	}
}
