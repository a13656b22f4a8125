package mpi

import (
	"fmt"
	"math/bits"
)

// Config controls a World.
type Config struct {
	// Procs is the number of ranks (MPI_COMM_WORLD size). Must be >= 1.
	Procs int
	// Hooks is the tool layer every MPI call flows through. Nil means no
	// tool. Compose multiple tools with pnmpi.Stack.
	Hooks *Hooks
	// Pools supplies the allocation freelists, world skeleton and rank
	// coroutines carried across worlds by a replay engine (see Pools), whose
	// owner calls Pools.Close after the last world. Nil means the world
	// creates its own and closes it when Run returns. A Pools must not be
	// shared by two concurrently-running worlds, and passing it here
	// invalidates the previous world and its handles.
	Pools *Pools
}

// World is one simulated MPI job. It owns the matching engine, the
// communicators and the rank scheduler. A World is good for a single Run.
//
// Scheduling: the ranks of a world run one at a time. Each rank runs on a
// coroutine of the world's Pools (see runner), resumed by the goroutine that
// called Run, which outlives the world when the Pools does; a rank keeps
// the turn until an MPI call parks it (an uncompleted Wait/Waitany, a Probe
// with nothing queued, a collective others have yet to enter, a tool's Park),
// finds nothing on a poll (Test, Testany, Testall, Iprobe) or returns. The
// scheduler then resumes the lowest runnable rank — after an empty poll, the
// next runnable rank round the ring, so a polling loop cannot starve the rank
// it polls for. No rank runnable and not all finished is the deadlock. Nothing
// in a World is locked or atomic: whoever holds the turn owns all of it.
type World struct {
	size    int
	hooks   *Hooks
	pools   *Pools // Config.Pools or the world's own: where Run parks the skeleton
	owned   bool   // the Pools is the world's own: Run closes it
	program func(p *Proc) error

	nextReq uint64
	sendSeq uint64 // global arrival order for envelopes (diagnostics)

	worldComm *commInfo // comm 0, immutable after NewWorld

	procs []*Proc
	// comms[:liveComms] are the communicators this world created, in
	// creation order; comms[liveComms:] are parked ones from the Pools'
	// previous world that newComm has not claimed yet.
	comms     []*commInfo
	liveComms int
	nextComm  int

	ready     []uint64 // bitmap of runnable ranks (the running one included)
	polled    int      // the rank whose empty poll ended the last turn, or -1
	nfinished int
	failure   error // sticky: deadlock or abort; checked by every blocking op
}

// NewWorld creates a world with n ranks and the given tool layer. On carried
// Pools it is the previous world's object, reset (see Pools).
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
	sk := pools.takeSkeleton()
	w := sk.world
	if w == nil {
		w = new(World)
	}
	*w = World{size: cfg.Procs, hooks: cfg.Hooks, pools: pools, owned: cfg.Pools == nil, polled: -1,
		procs: sk.procs, comms: sk.comms, ready: sk.ready}
	if len(w.procs) != w.size {
		w.procs = make([]*Proc, w.size)
		for i := range w.procs {
			w.procs[i] = new(Proc)
		}
		w.ready = make([]uint64, (w.size+63)/64)
	}
	for i, p := range w.procs {
		*p = Proc{world: w, rank: i, pool: &pools.ranks[i]}
		p.pmpi = PMPI{p: p}
		w.setReady(p)
	}
	ci := w.claimComm("world", w.size)
	for i := range ci.members {
		ci.members[i] = i
	}
	ci.mapRanks()
	w.worldComm = ci
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

// Run executes program on every rank, one rank at a time (see World), until
// all ranks have returned. It returns nil if every rank returned nil, or a
// *RunError aggregating deadlocks, aborts and per-rank failures.
func (w *World) Run(program func(p *Proc) error) error {
	w.program = program
	// The rank coroutines stop with their owner: here when the Pools is the
	// world's own — and whoever's it is when Run unwinds with ranks still
	// inside the program (a rank called runtime.Goexit, a hook panicked on
	// the scheduler's turn), because a coroutine parked in the middle of this
	// world cannot start the next one.
	defer func() {
		if w.owned || w.nfinished < w.size {
			w.pools.Close()
		}
	}()
	for r, p := range w.procs {
		w.pools.runner(r).proc = p
	}
	for w.nfinished < w.size {
		if r := w.pick(); r >= 0 {
			w.pools.runners[r].resume()
		} else {
			w.idle()
		}
	}
	// Every rank has returned: leave the skeleton for the next world on
	// these Pools. Nothing is reset here — tool layers still inspect the
	// finished world (e.g. draining leftover messages).
	w.pools.skel = skeleton{world: w, procs: w.procs, comms: w.comms, ready: w.ready}

	// A clean run allocates no RunError.
	failure := w.failure
	var re *RunError
	if d, ok := failure.(*DeadlockError); ok {
		re = &RunError{Deadlock: d}
	} else if failure != nil {
		re = &RunError{Aborted: failure}
	}
	for _, p := range w.procs {
		err := p.err
		if err == nil {
			continue
		}
		// Shutdown-propagation errors duplicate the failure; keep only
		// genuine program errors.
		if failure != nil && (err == failure || err == ErrAborted || IsDeadlock(err)) {
			continue
		}
		if re == nil {
			re = &RunError{}
		}
		re.RankErrors = append(re.RankErrors, &RankError{Rank: p.rank, Err: err})
	}
	if re == nil {
		return nil
	}
	return re
}

// main is one world's turn on rank p's coroutine: the tool's Init, the
// program, the tool's AtFinalize. yield hands the turn back to the scheduler.
func (p *Proc) main(yield func(struct{}) bool) {
	w := p.world
	p.yield = yield
	defer func() {
		if r := recover(); r != nil {
			p.err = fmt.Errorf("mpi: rank %d panicked: %v", p.rank, r)
		}
		p.finished = true
		w.clearReady(p)
		w.nfinished++
	}()
	if w.hooks != nil && w.hooks.Init != nil {
		w.hooks.Init(p)
	}
	p.err = w.program(p)
	if w.hooks != nil && w.hooks.AtFinalize != nil {
		w.hooks.AtFinalize(p)
	}
}

func (w *World) setReady(p *Proc)   { w.ready[p.rank>>6] |= 1 << (p.rank & 63) }
func (w *World) clearReady(p *Proc) { w.ready[p.rank>>6] &^= 1 << (p.rank & 63) }

// nextReady returns the lowest runnable rank >= from, or -1.
func (w *World) nextReady(from int) int {
	for i := from >> 6; i < len(w.ready); i++ {
		word := w.ready[i]
		if i == from>>6 {
			word &^= 1<<(from&63) - 1
		}
		if word != 0 {
			return i<<6 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// pick chooses the rank to resume: the lowest runnable one, except that the
// turn after an empty poll goes to the next runnable rank round the ring from
// the poller (the poller itself only if no other rank can run).
func (w *World) pick() int {
	from := w.polled + 1
	w.polled = -1
	if r := w.nextReady(from); r >= 0 || from == 0 {
		return r
	}
	return w.nextReady(0)
}

// idle runs when no rank is runnable and not all have finished. A tool layer
// that parks ranks itself (Proc.Park) gets to release one; if none becomes
// runnable, every unfinished rank waits for another and the world is
// deadlocked.
func (w *World) idle() {
	if w.failure != nil {
		// fail woke every parked rank and nothing parks in a failed world.
		panic("mpi: no runnable rank in a failed world")
	}
	if w.hooks != nil && w.hooks.Idle != nil {
		w.hooks.Idle(w)
		if w.nextReady(0) >= 0 {
			return
		}
	}
	blocked := make(map[int]string)
	for _, p := range w.procs {
		if !p.finished {
			blocked[p.rank] = p.park.String()
		}
	}
	w.fail(&DeadlockError{BlockedAt: blocked})
}

// block parks rank p, which has just set p.park, until what it waits for has
// happened or the world fails; it returns the sticky failure, if any. Whoever
// makes the condition true marks p runnable (completed, deliver,
// enterCollective, Unpark, fail); the condition is still re-checked on every
// resume.
func (w *World) block(p *Proc) error {
	for {
		if w.failure != nil || p.park.satisfied() {
			p.park = parking{}
			return w.failure
		}
		if p.finished {
			// Outside Run (a tool draining a finished world) nobody is left
			// to make the condition true.
			p.park = parking{}
			return ErrFinalized
		}
		w.clearReady(p)
		w.yield(p)
	}
}

// yield hands p's turn back to the scheduler. The coroutine's yield reports
// false when the coroutine is being stopped under an unfinished world
// (Pools.Close from an unwinding Run): from then on it no longer switches, so
// a rank that went on waiting would spin. The world is over: fail it, and
// block and poll return the failure and the rank unwinds.
func (w *World) yield(p *Proc) {
	if !p.yield(struct{}{}) {
		w.fail(ErrAborted)
	}
}

// poll ends the turn of a rank whose Test/Iprobe-family call found nothing:
// p stays runnable, and the ranks after it get to run before it polls again.
// It returns the sticky failure, which a polling loop must get to see.
func (w *World) poll(p *Proc) error {
	if w.failure == nil && !p.finished {
		w.polled = p.rank
		w.yield(p)
	}
	return w.failure
}

// completed wakes the owner of a request that has just completed, if that is
// what the owner is parked on.
func (w *World) completed(r *Request) {
	p := r.proc
	if k := p.park.kind; k == parkWaitany || k == parkWait && p.park.req == r {
		w.setReady(p)
	}
}

// fail records a sticky failure and wakes every parked rank.
func (w *World) fail(err error) {
	if w.failure != nil {
		return
	}
	w.failure = err
	for _, p := range w.procs {
		if p.park.kind != parkNone {
			w.setReady(p)
		}
	}
}

// AbortWith terminates the world with err. Tool layers (e.g. the ISP
// scheduler, which detects deadlocks among operations it holds outside the
// runtime) use it to fail the run with a descriptive error.
func (w *World) AbortWith(err error) {
	if err == nil {
		err = ErrAborted
	}
	w.fail(err)
}

// Failure returns the sticky failure (deadlock or abort), if any.
func (w *World) Failure() error { return w.failure }

// Unpark releases a rank parked by Proc.Park; a no-op for any other rank.
func (w *World) Unpark(rank int) {
	if p := w.procs[rank]; p.park.kind == parkTool {
		p.park.released = true
		w.setReady(p)
	}
}

// BlockedRanks returns a sorted list of ranks currently parked inside the
// runtime; useful for tests and tools.
func (w *World) BlockedRanks() []int {
	var out []int
	for _, p := range w.procs {
		if p.park.kind != parkNone {
			out = append(out, p.rank)
		}
	}
	return out
}
