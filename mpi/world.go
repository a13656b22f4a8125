package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Config controls a World.
type Config struct {
	// Procs is the number of ranks (MPI_COMM_WORLD size). Must be >= 1.
	Procs int
	// Hooks is the tool layer every MPI call flows through. Nil means no
	// tool. Compose multiple tools with pnmpi.Stack.
	Hooks *Hooks
	// Pools supplies the allocation freelists and world skeleton carried
	// across worlds by a replay engine (see Pools). Nil means the world
	// creates its own. A Pools must not be shared by two concurrently-running
	// worlds, and passing it here invalidates the previous world's handles.
	Pools *Pools
}

// World is one simulated MPI job. It owns the matching engine, the
// communicators and the deadlock detector. A World is good for a single Run.
//
// Locking: message matching is sharded — each (comm, dst) mailbox has its own
// lock, and the point-to-point fast paths (Isend/Irecv/Test/Iprobe and
// uncontended Wait) never touch w.mu. The world lock serializes only the slow
// paths that need global state: parking a rank, deadlock detection,
// collective rendezvous and communicator create/free. Lock order is strictly
// w.mu before mailbox.mu; a fast path holding a mailbox lock must release it
// before waking a parked rank (wake takes w.mu).
type World struct {
	size  int
	hooks *Hooks
	pools *Pools // Config.Pools or the world's own: where Run parks the skeleton

	nextReq atomic.Uint64
	sendSeq atomic.Uint64 // global arrival order for envelopes (diagnostics)
	failed  atomic.Bool   // fast mirror of failure != nil

	worldComm *commInfo // comm 0, immutable after NewWorld

	mu    sync.Mutex
	procs []*Proc
	// comms[:liveComms] are the communicators this world created, in
	// creation order; comms[liveComms:] are parked ones from the Pools'
	// previous world that newCommLocked has not claimed yet.
	comms     []*commInfo
	liveComms int
	nextComm  int

	nblocked  int
	nfinished int
	failure   error // sticky: deadlock or abort; checked by every blocked op
}

// NewWorld creates a world with n ranks and the given tool layer.
func NewWorld(cfg Config) *World {
	if cfg.Procs < 1 {
		panic(fmt.Sprintf("mpi: NewWorld with %d procs", cfg.Procs))
	}
	pools := cfg.Pools
	if pools == nil {
		pools = NewPools(cfg.Procs)
	} else {
		pools.grow(cfg.Procs)
	}
	w := &World{size: cfg.Procs, hooks: cfg.Hooks, pools: pools}
	sk := pools.takeSkeleton()
	w.comms = sk.comms
	w.procs = sk.procs
	if len(w.procs) != w.size {
		w.procs = make([]*Proc, w.size)
		for i := range w.procs {
			w.procs[i] = new(Proc)
		}
	}
	members := make([]int, w.size)
	for i, p := range w.procs {
		members[i] = i
		*p = Proc{world: w, rank: i, pool: &pools.ranks[i]}
		p.cond.L = &w.mu
		p.pmpi = PMPI{p: p}
	}
	w.worldComm = w.newCommLocked("world", members)
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// RankError pairs a rank with the error its program returned.
type RankError struct {
	Rank int
	Err  error
}

func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

func (e *RankError) Unwrap() error { return e.Err }

// RunError aggregates everything that went wrong in a run.
type RunError struct {
	// Deadlock is non-nil if the run deadlocked.
	Deadlock *DeadlockError
	// RankErrors holds per-rank program errors (excluding errors that merely
	// reflect the deadlock/abort shutdown).
	RankErrors []*RankError
	// Aborted is the error passed to Abort, if any.
	Aborted error
}

func (e *RunError) Error() string {
	switch {
	case e.Deadlock != nil:
		return e.Deadlock.Error()
	case e.Aborted != nil:
		return fmt.Sprintf("mpi: aborted: %v", e.Aborted)
	case len(e.RankErrors) > 0:
		return fmt.Sprintf("mpi: %d rank(s) failed, first: %v", len(e.RankErrors), e.RankErrors[0])
	}
	return "mpi: run failed"
}

// Unwrap exposes every constituent failure, so errors.Is/As see both the
// deadlock/abort and any per-rank program errors.
func (e *RunError) Unwrap() []error {
	var errs []error
	if e.Deadlock != nil {
		errs = append(errs, e.Deadlock)
	}
	if e.Aborted != nil {
		errs = append(errs, e.Aborted)
	}
	for _, re := range e.RankErrors {
		errs = append(errs, re)
	}
	return errs
}

// Run executes program on every rank concurrently and waits for all ranks to
// return. It returns nil if every rank returned nil, or a *RunError
// aggregating deadlocks, aborts and per-rank failures.
func (w *World) Run(program func(p *Proc) error) error {
	errs := make([]error, w.size)
	var wg sync.WaitGroup
	wg.Add(w.size)
	for i := 0; i < w.size; i++ {
		p := w.procs[i]
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[p.rank] = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
					w.finishRank(p)
				}
			}()
			if w.hooks != nil && w.hooks.Init != nil {
				w.hooks.Init(p)
			}
			err := program(p)
			if w.hooks != nil && w.hooks.AtFinalize != nil {
				w.hooks.AtFinalize(p)
			}
			errs[p.rank] = err
			w.finishRank(p)
		}()
	}
	wg.Wait()
	// Every rank goroutine is gone: leave the skeleton for the next world on
	// these Pools. Nothing is reset here — tool layers still inspect the
	// finished world (e.g. draining leftover messages).
	w.pools.skel = skeleton{procs: w.procs, comms: w.comms}

	w.mu.Lock()
	failure := w.failure
	w.mu.Unlock()

	re := &RunError{}
	if d, ok := failure.(*DeadlockError); ok {
		re.Deadlock = d
	} else if failure != nil {
		re.Aborted = failure
	}
	for rank, err := range errs {
		if err == nil {
			continue
		}
		// Shutdown-propagation errors duplicate the failure; keep only
		// genuine program errors.
		if failure != nil && (err == failure || err == ErrAborted || IsDeadlock(err)) {
			continue
		}
		re.RankErrors = append(re.RankErrors, &RankError{Rank: rank, Err: err})
	}
	if re.Deadlock == nil && re.Aborted == nil && len(re.RankErrors) == 0 {
		return nil
	}
	return re
}

// finishRank marks a rank as done and re-checks for deadlock among the rest.
func (w *World) finishRank(p *Proc) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if p.finished {
		return
	}
	p.finished = true
	w.nfinished++
	w.checkDeadlockLocked()
}

// fastFailure returns the sticky failure without taking w.mu in the common
// (healthy) case. Fast-path operations call it instead of reading w.failure.
func (w *World) fastFailure() error {
	if !w.failed.Load() {
		return nil
	}
	w.mu.Lock()
	err := w.failure
	w.mu.Unlock()
	return err
}

// wake wakes p if it may be parked. Fast-path completions call it after
// releasing any mailbox lock — w.mu must never be acquired under one. The
// parked flag makes the handoff race-free: a parking rank stores it (under
// w.mu) before evaluating its predicate, and a waker publishes the completion
// before loading it, so one side always sees the other.
func (w *World) wake(p *Proc) {
	if !p.parked.Load() {
		return
	}
	w.mu.Lock()
	p.cond.Broadcast()
	w.mu.Unlock()
}

// block parks rank p until pred() holds or the world fails. desc lazily
// describes the call for deadlock reports (built only if one fires). Must be
// called with w.mu held; returns with w.mu held. Returns the sticky failure,
// if any.
func (w *World) block(p *Proc, desc func() string, pred func() bool) error {
	p.parked.Store(true)
	defer p.parked.Store(false)
	for {
		if w.failure != nil {
			return w.failure
		}
		if pred() {
			return nil
		}
		p.blockedAt = desc
		p.blockedPred = pred
		w.nblocked++
		w.checkDeadlockLocked()
		if w.failure == nil {
			// checkDeadlockLocked may have just failed the world (broadcasting
			// before we parked); only park if there is still something to wait
			// for.
			p.cond.Wait()
		}
		w.nblocked--
		p.blockedAt = nil
		p.blockedPred = nil
	}
}

// checkDeadlockLocked fires when every unfinished rank is blocked. A rank
// inside a mailbox fast path is neither blocked nor finished, so the check
// cannot race an in-flight delivery; predicates re-read live mailbox state
// (taking the mailbox lock under w.mu — the sanctioned lock order), so
// "everyone blocked with no satisfiable predicate" remains a stable, precise
// deadlock condition under the sharded engine.
func (w *World) checkDeadlockLocked() {
	if w.failure != nil {
		return
	}
	if w.nblocked+w.nfinished < w.size || w.nblocked == 0 {
		return
	}
	// A rank counts as blocked from park to reschedule; one whose predicate
	// already holds has merely not woken yet, so the system can still move.
	for _, p := range w.procs {
		if p.blockedPred != nil && p.blockedPred() {
			return
		}
	}
	blocked := make(map[int]string)
	for _, p := range w.procs {
		if !p.finished && p.blockedAt != nil {
			blocked[p.rank] = p.blockedAt()
		}
	}
	w.failLocked(&DeadlockError{BlockedAt: blocked})
}

// failLocked records a sticky failure and wakes every parked rank.
func (w *World) failLocked(err error) {
	if w.failure != nil {
		return
	}
	w.failure = err
	w.failed.Store(true)
	for _, p := range w.procs {
		p.cond.Broadcast()
	}
}

// AbortWith terminates the world with err. Tool layers (e.g. the ISP
// scheduler, which detects deadlocks among operations it holds outside the
// runtime) use it to fail the run with a descriptive error.
func (w *World) AbortWith(err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err == nil {
		err = ErrAborted
	}
	w.failLocked(err)
}

// Failure returns the sticky failure (deadlock or abort), if any.
func (w *World) Failure() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failure
}

// QuiescentRanks returns the sorted ranks that are parked inside the
// runtime with an unsatisfied wait condition: they cannot make progress
// until some other rank acts. Ranks whose condition already holds (their
// wakeup is in flight) are excluded — a centralized scheduler polling for
// global quiescence (ISP) must not mistake them for stuck.
func (w *World) QuiescentRanks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int
	for _, p := range w.procs {
		if p.blockedPred != nil && !p.blockedPred() {
			out = append(out, p.rank)
		}
	}
	sort.Ints(out)
	return out
}

// BlockedRanks returns a sorted list of ranks currently parked inside the
// runtime; useful for tests and tools.
func (w *World) BlockedRanks() []int {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []int
	for _, p := range w.procs {
		if p.blockedPred != nil {
			out = append(out, p.rank)
		}
	}
	sort.Ints(out)
	return out
}
