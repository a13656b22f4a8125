package dexplore

import (
	"math"
	"time"
)

// LeaseSlice is how long a slot explores one lease before handing the rest
// back: long enough that the lease's round trip is noise beside the replays it
// carries, short enough that an idle slot is not kept waiting for a share and
// a crash loses little.
const LeaseSlice = 10 * time.Millisecond

// MaxLeaseRoots bounds the subtrees of one lease: past it the guided share
// only moves untouched roots out and back.
const MaxLeaseRoots = 16

// minLeaseBudget floors a lease's share of the cap's remaining replays (while
// that many remain), so the end of a capped run is not one round trip per replay.
const minLeaseBudget = 8

// minLeaseRoots floors a lease's share of the frontier's subtrees likewise, so
// the end of a small exploration is not one round trip per subtree — but only
// up to an equal part for each slot idle at the grant, whose own grant follows:
// the first leases after the root run still fan out across the slots.
const minLeaseRoots = 8

// DefaultProgressEvery is the progress-callback period (Monitor applies it)
// of a Config, this engine's or dcoord's, that sets none. The checkpoint
// cadence's default is DefaultCheckpointInterval (writer.go).
const DefaultProgressEvery = time.Second

// Frontier is the scheduling state of a multi-worker exploration, kept under
// its engine's one mutex: the subtrees waiting to be leased, and what the
// leases out hold of the interleaving cap. The in-process Engine shares one
// among its slots; the cluster Coordinator holds one whose entries carry
// their wire keys, and adds only what a wire needs (done-set, redelivery,
// expiry, late results).
type Frontier[T any] struct {
	// Tasks holds the pending subtrees, oldest (shallowest) first: grants take
	// from the front, leftovers and requeues join at the back.
	Tasks []T
	// Max is the cap on replays (MaxInterleavings; 0 = none).
	Max int
	// RootDone says the initial self-discovery run has been merged, so an
	// empty Tasks means exhaustion rather than not-started.
	RootDone bool

	held        int // grants out
	outstanding int // sum of their budgets
}

// Room is how many replays the cap still has to give: neither merged nor
// budgeted to a grant out. Without a cap there is always room.
func (f *Frontier[T]) Room(merged int) int {
	if f.Max <= 0 {
		return math.MaxInt
	}
	return f.Max - merged - f.outstanding
}

// Grant leases the next share of the frontier, or nothing (nil) when there is
// nothing to share: the roots, and the replays that may be spent on them (0 =
// no bound). The share is guided self-scheduling over the slots exploring:
// 1/(2·slots) of the live subtrees (floored at minLeaseRoots, or at an idle
// slot's equal part if that is less), at most maxRoots, oldest first — the
// shallowest, so the largest — and under a cap the same fraction of the
// replays it has room for (floored at minLeaseBudget), so grants shrink as the
// work does, but not to nothing, and the cap is met exactly. Until the
// self-discovery run is done a grant is one subtree and one replay: that
// run's trace, alerts and expansion are what every other slot is waiting for. The roots are a view of the
// frontier's old front, which nothing writes again. Every grant ends in one
// Release of its budget.
func (f *Frontier[T]) Grant(slots, maxRoots, merged int) (roots []T, budget int) {
	budget, ok := f.share(slots, merged)
	if len(f.Tasks) == 0 || !ok {
		return nil, 0
	}
	idle := max(slots-f.held, 1) // this grant's slot, and the others still to be granted
	part := (len(f.Tasks) + idle - 1) / idle
	n := max(ceilShare(len(f.Tasks), slots), min(minLeaseRoots, part))
	n = min(n, maxRoots)
	if budget > 0 {
		n = min(n, budget)
	}
	if !f.RootDone {
		n, budget = 1, 1
	}
	roots, f.Tasks = f.Tasks[:n:n], f.Tasks[n:]
	f.held++
	f.outstanding += budget
	return roots, budget
}

// Renew is Grant for a slot that keeps subtrees of the lease it has just
// released, because no other slot needs them: only the budget is shared out
// again. It reports false when the cap has no room, and the subtrees must
// rejoin the frontier.
func (f *Frontier[T]) Renew(slots, merged int) (budget int, ok bool) {
	if budget, ok = f.share(slots, merged); ok {
		f.held++
		f.outstanding += budget
	}
	return budget, ok
}

// share sizes a lease's budget: 0 (no bound) without a cap, else its guided
// share of the room, and false when there is none.
func (f *Frontier[T]) share(slots, merged int) (budget int, ok bool) {
	if f.Max <= 0 {
		return 0, true
	}
	room := f.Room(merged)
	return min(room, max(ceilShare(room, slots), minLeaseBudget)), room > 0
}

// ceilShare is ceil(n / (2·slots)): one slot's guided share of n.
func ceilShare(n, slots int) int { return (n + 2*slots - 1) / (2 * slots) }

// Release ends a grant: its slot is free and its budget back in the pool.
func (f *Frontier[T]) Release(budget int) {
	f.held--
	f.outstanding -= budget
}

// Finishable reports whether the exploration is over: nothing is leased, and
// it is halted (drained, failed), or the cap is met, or the root ran and no
// subtree remains.
func (f *Frontier[T]) Finishable(merged int, halted bool) bool {
	if f.held > 0 {
		return false
	}
	return halted || (f.Max > 0 && merged >= f.Max) || (f.RootDone && len(f.Tasks) == 0)
}
