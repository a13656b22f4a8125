package mpi

import (
	"iter"
	"slices"
)

// Allocation pools for the replay hot path. A replay engine runs thousands of
// short-lived worlds, so whatever a world allocates for its own construction
// is a fixed cost multiplied by the size of the search. Pools carries four
// things from one world to the next so that a warm replay allocates only what
// escapes it (application payloads and application-held requests) and starts
// no goroutine:
//
//   - Envelopes and payload copies recycle through one freelist each per
//     Pools. An envelope is runtime-internal for its whole life: the sender
//     takes one, whoever matches it (the sender in deliver, the receiver in
//     Irecv) puts it back. A payload copy is taken by the sender and comes
//     back only when the receiver hands it over (Request.Release) — one list
//     for all ranks, because the rank that takes a buffer is rarely the one
//     that returns it.
//   - Requests are slab-allocated per rank (see Proc.newRequest). The unused
//     remainder of a slab stays in the rank's pool when its world ends, so the
//     next world continues the slab instead of starting a new one. Requests
//     that escape to the application (Isend/Irecv) are never recycled;
//     requests that never leave the runtime or the tool layer — the implicit
//     request inside a blocking Send/Recv, the piggyback layer's clock
//     traffic — return to a per-rank freelist through Request.Free.
//   - The world skeleton (the World itself, its procs, communicators with
//     their mailboxes and, once a tool layer has asked for one, their tool
//     contexts) is parked here when World.Run returns and reset by the next
//     NewWorld, so mailbox queues keep the capacity earlier replays grew them
//     to.
//   - The rank coroutines (runner): one per rank, started by the first world
//     that needs it and parked between worlds, so the next world pays for no
//     iter.Pull and runs on stacks the earlier ones already grew. Unlike the
//     storage above they are not garbage when dropped — a parked coroutine is
//     a goroutine — so a Pools that ran a world must be closed (Pools.Close)
//     by whoever created it.
//
// The freelists are deliberately NOT sync.Pools: a world's ranks run one at a
// time (see World), so every access happens on the turn of the one rank
// running and no synchronization is needed at all — and unlike a
// package-global sync.Pool, a replay engine running many explorations at once
// never funnels every world's traffic through shared per-P lists.

// poolRankCap bounds each rank's request freelist and, times the rank count,
// the envelope and buffer freelists; beyond it, freed objects are dropped for
// the GC. Steady-state replay traffic uses a handful of objects per rank, so
// the cap only matters after a pathological unexpected-queue burst.
const poolRankCap = 128

// Pools holds the freelists, the parked skeleton and the rank coroutines for
// one world at a time. A replay slot (core.RunContext) owns one Pools and
// threads it through Config.Pools so the warmed-up storage and stacks survive
// across the thousands of short-lived worlds of an exploration, without any
// cross-worker sharing.
//
// A Pools must not be used by two concurrently-running worlds. Handing a
// Pools to NewWorld invalidates the *World that last ran on it — the new
// world is the same object, reset — and every Proc, Comm and Request of that
// world. Whoever calls NewPools calls Close once no further
// world will run on it (see Close).
type Pools struct {
	envs    []*envelope
	bufs    [][]byte // payload copies handed back by Request.Release
	ranks   []rankPool
	runners []*runner // by rank; nil until a world needs that rank
	skel    skeleton
}

// skeleton is the world-shaped scaffolding a finished world leaves behind:
// the World, its procs, its runnable-rank bitmap and every communicator it
// created. World.Run parks it; the next NewWorld on the same Pools takes it,
// resets it and builds on it.
type skeleton struct {
	world *World
	procs []*Proc
	ready []uint64
	comms []*commInfo
}

// NewPools creates freelists for worlds of up to procs ranks (grown
// automatically if a larger world attaches).
func NewPools(procs int) *Pools {
	pl := &Pools{}
	pl.grow(procs)
	return pl
}

// grow ensures at least n rank slots.
func (pl *Pools) grow(n int) {
	if n > len(pl.ranks) {
		ranks := make([]rankPool, n)
		copy(ranks, pl.ranks)
		pl.ranks = ranks
		runners := make([]*runner, n)
		copy(runners, pl.runners)
		pl.runners = runners
	}
}

// runner is one rank's coroutine: a loop that takes the next world's Proc for
// its rank, runs it to the end (Proc.main), hands the turn back and waits for
// the next world. World.Run sets proc and resumes; the stack the coroutine
// grew in one world is the stack the next one starts on.
type runner struct {
	proc   *Proc // the Proc to run at the next resume; nil between worlds
	resume func() (struct{}, bool)
	stop   func()
}

// runner returns rank r's coroutine, starting it if no world on these Pools
// has needed that rank since NewPools or the last Close.
func (pl *Pools) runner(r int) *runner {
	rn := pl.runners[r]
	if rn == nil {
		rn = &runner{}
		rn.resume, rn.stop = iter.Pull(rn.loop)
		pl.runners[r] = rn
	}
	return rn
}

// loop is the coroutine's body. Between worlds it references neither the
// Pools, a World nor a finished Proc, so a parked runner pins nothing but its
// own stack.
func (rn *runner) loop(yield func(struct{}) bool) {
	for {
		p := rn.proc
		rn.proc = nil
		p.main(yield)
		if !yield(struct{}{}) {
			return
		}
	}
}

// Close stops the rank coroutines. Everything else a Pools holds is ordinary
// garbage, but a parked coroutine is a goroutine with a stack, and nothing
// collects it: a Pools that ran a world and is dropped unclosed leaves up to
// one parked goroutine per rank until the process exits. (A finalizer cannot
// stand in: Pools → skeleton → Proc → World → Pools is a cycle.) The three
// owners — a World without Config.Pools, core.RunContext.Explore,
// core.ExecuteRun — close for their callers; code that drives worlds on its
// own NewPools, or calls core.RunContext.Run in a loop of its own, closes
// itself. Close is idempotent, and the Pools remains usable: the next world
// starts fresh coroutines.
//
// Close must not be called while a world is running on the Pools, except by
// World.Run itself, unwinding: a coroutine parked inside an unfinished world
// is stopped by failing that world with ErrAborted, so its rank returns.
func (pl *Pools) Close() {
	for r, rn := range pl.runners {
		if rn != nil {
			pl.runners[r] = nil
			rn.stop()
		}
	}
}

// takeSkeleton hands the parked skeleton to a new world, reset to the state
// of freshly built storage: queues truncated (keeping their capacity),
// leftover envelopes recycled, every pointer into the previous world
// cleared.
func (pl *Pools) takeSkeleton() skeleton {
	sk := pl.skel
	pl.skel = skeleton{}
	clear(sk.ready)
	for _, ci := range sk.comms {
		pl.resetBoxes(ci.boxes)
		if ci.tool != nil {
			pl.resetBoxes(ci.tool.boxes)
		}
		clear(ci.ranks)
		clear(ci.colls) // instances a deadlock or abort left half-entered
	}
	return sk
}

func (pl *Pools) resetBoxes(boxes []mailbox) {
	for i := range boxes {
		mb := &boxes[i]
		for j, env := range mb.unexpected {
			pl.putEnv(env)
			mb.unexpected[j] = nil
		}
		mb.unexpected = mb.unexpected[:0]
		clear(mb.posted)
		mb.posted = mb.posted[:0]
	}
}

func (pl *Pools) getEnv() *envelope {
	if n := len(pl.envs); n > 0 {
		e := pl.envs[n-1]
		pl.envs[n-1] = nil
		pl.envs = pl.envs[:n-1]
		return e
	}
	return new(envelope)
}

// putEnv recycles a matched envelope. The payload buffer is NOT recycled
// here: it has been handed to the receiving request.
func (pl *Pools) putEnv(e *envelope) {
	*e = envelope{}
	if len(pl.envs) < poolRankCap*len(pl.ranks) {
		pl.envs = append(pl.envs, e)
	}
}

// getBuf returns a zero-length buffer with capacity >= n. Only buffers
// explicitly returned via Request.Release come back; in steady state the
// piggyback path (fixed clock-sized messages at high rate) hits the freelist
// on every send, whichever way the clocks flow. A top buffer that is too
// small stays on the list: an oversize request costs its own allocation and
// nothing else.
func (pl *Pools) getBuf(n int) []byte {
	if k := len(pl.bufs); k > 0 && cap(pl.bufs[k-1]) >= n {
		b := pl.bufs[k-1]
		pl.bufs[k-1] = nil
		pl.bufs = pl.bufs[:k-1]
		return b
	}
	return make([]byte, 0, n)
}

func (pl *Pools) putBuf(b []byte) {
	if cap(b) == 0 || len(pl.bufs) >= poolRankCap*len(pl.ranks) {
		return
	}
	pl.bufs = append(pl.bufs, b[:0])
}

// rankPool is one rank's request storage: its freed requests, the rest of
// its slab, and the requests the current world handed to its program.
type rankPool struct {
	reqs    []*Request // freed requests (Request.Free)
	reqSlab []Request  // unused remainder of the current request slab
	// escaped holds the requests Isend/Issend/Irecv handed to the program in
	// this world, the consumed ones dropped whenever it fills: what
	// RequestLeaks reads. NewWorld empties it, keeping its capacity.
	escaped []*Request
}

// escape records a request handed to the program. Before the list grows it
// drops the requests already consumed, and it grows only if that freed less
// than half of it: its length stays within twice the program's live handles,
// in amortized constant time.
func (rp *rankPool) escape(r *Request) {
	if l := rp.escaped; len(l) == cap(l) && len(l) > 0 {
		l = slices.DeleteFunc(l, func(r *Request) bool { return r.consumed })
		if len(l) > cap(l)/2 {
			l = slices.Grow(l, cap(l))
		}
		rp.escaped = l
	}
	rp.escaped = append(rp.escaped, r)
}

// reqSlabSize is the per-rank Request slab length. A held request pins at
// most this many siblings, a bounded cost traded for ~64x fewer allocations.
const reqSlabSize = 64

// newRequest returns a zeroed request: a freed one if the rank has any,
// otherwise the next entry of the rank's slab (which outlives the world: see
// the file comment).
func (p *Proc) newRequest() *Request {
	rp := p.pool
	if n := len(rp.reqs); n > 0 {
		r := rp.reqs[n-1]
		rp.reqs[n-1] = nil
		rp.reqs = rp.reqs[:n-1]
		return r
	}
	if len(rp.reqSlab) == 0 {
		rp.reqSlab = make([]Request, reqSlabSize)
	}
	r := &rp.reqSlab[0]
	rp.reqSlab = rp.reqSlab[1:]
	return r
}
