package dcoord

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// pending is one frontier entry: a subtree, and how often it has lost a
// lease (the redelivery cap bounds that).
type pending struct {
	task *core.SubtreeTask
	lost int
}

// lease is one outstanding assignment — subtrees taken from the shallow end
// of the frontier and the replays the worker may spend on them, as the task
// frame carries them — and who holds it since when.
type lease struct {
	wireTask
	roots   []pending // the frontier entries Tasks was made of
	conn    *workerConn
	granted time.Time
	expires time.Time
}

// machine is one exploration's lease protocol as a transition system. Its
// step reads no clock, touches no connection, starts nothing and locks
// nothing, and is a function of its event sequence: workers are kept in
// attach order and leases in grant order, not in maps.
type machine struct {
	cfg Config
	// ecfg is the spec as the ExplorerConfig RootTask, Report.Seal and the
	// checkpoint codec read (no program: nothing replays here). Read-only.
	ecfg core.ExplorerConfig
	// maxRoots, maxLeaseAge and maxRedeliveries are dexplore.MaxLeaseRoots,
	// leaseAgeTTLs × the TTL and redeliveryCap; tests vary them.
	maxRoots        int
	maxLeaseAge     time.Duration
	maxRedeliveries int
	workers         []*workerConn
	turn            int // dispatch starts at workers[turn % len]
	// front is the frontier and the grant rule the in-process engine runs
	// too. Every subtree not explored yet is in exactly one place: its Tasks,
	// or one held lease.
	front     dexplore.Frontier[pending]
	leases    []*lease
	nextLease uint64 // = leases granted so far
	requeues  int    // leases lost and requeued
	report    *core.Report
	stopped   bool // drain: no new leases (Stop, StopOnFirstError or a failure)
	finished  bool
	runErr    error
	// cad says when a periodic cut falls due (with a CheckpointPath), on the
	// events' clock, which starts at the first event.
	cad dexplore.Cadence
	// flat is where result flattens the sets of a lease's roots and leftovers.
	flat core.Flattener
}

// Events: what a read loop, the janitor, the driver or Stop observed.
type (
	evAttach     struct{ w *workerConn } // an announced worker joins
	evHeartbeat  struct{ w *workerConn } // renews w's leases
	evDisconnect struct{ w *workerConn } // w's connection died or a write to it failed
	evTick       struct{}                // the janitor: expire leases
	evStop       struct{}                // drain
	// evSaved: the periodic cut is written, or the final one failed with err.
	evSaved struct{ err error }
	// evResult is one returned lease, decoded outside the lock (decode).
	evResult struct {
		w     *workerConn
		res   *WireResult
		delta *core.Report
		left  []*core.SubtreeTask
		bad   error // the delta did not decode
	}
)

// Actions: what the driver does once the step is over, in order.
type (
	actSend struct {
		w  *workerConn
		fr *frame
	}
	actPeriodic struct{ cut *dexplore.Checkpoint } // save, then report evSaved
	// actFinalize: the final cut (nil without a path) and jobdone; a failed
	// write of the cut is reported as evSaved.
	actFinalize struct {
		cut   *dexplore.Checkpoint
		conns []*workerConn
	}
)

// step applies one event at time now: the exploration ends if it is over, or
// else gets the grants the new state allows (none if nothing changed). A
// result's periodic cut is taken before those grants, saved after them.
func (m *machine) step(ev any, now time.Time) []any {
	switch ev := ev.(type) {
	case evDisconnect:
		if !ev.w.gone {
			ev.w.gone = true
			m.workers = slices.DeleteFunc(m.workers, func(w *workerConn) bool { return w == ev.w })
			m.requeue(func(l *lease) bool { return l.conn == ev.w })
		}
	case evSaved:
		m.cad.Saved()
		if ev.err != nil {
			m.fail(ev.err)
		}
	}
	if m.finished {
		return nil
	}
	m.cad.Begin(now)
	var cut *dexplore.Checkpoint
	switch ev := ev.(type) {
	case evAttach:
		if !ev.w.gone {
			ev.w.active, ev.w.completed = 0, 0
			m.workers = append(m.workers, ev.w)
		}
	case evHeartbeat:
		for _, l := range m.leases {
			if l.conn == ev.w {
				l.expires = now.Add(m.cfg.LeaseTTL)
			}
		}
	case evTick:
		m.requeue(func(l *lease) bool { return now.After(l.expires) || now.Sub(l.granted) > m.maxLeaseAge })
	case evStop:
		m.stopped = true
	case evResult:
		if merged := m.result(ev); m.cfg.CheckpointPath != "" && m.cad.Due(merged, now) {
			cut = m.checkpoint()
		}
	}
	if m.front.Finishable(m.report.Interleavings, m.stopped) {
		return []any{m.finalize()}
	}
	acts := m.dispatch(now)
	if cut != nil {
		acts = append(acts, actPeriodic{cut})
	}
	return acts
}

// dispatch grants a lease to every free worker slot while the frontier has
// subtrees (and the cap replays) to share, one frame per worker, going round
// from the worker after the last granted: a silent one's lost lease goes on.
func (m *machine) dispatch(now time.Time) []any {
	if m.stopped {
		return nil
	}
	slots := 0
	for _, w := range m.workers {
		slots += w.slots
	}
	var acts []any
	for i, n, from := 0, len(m.workers), m.turn; i < n; i++ {
		w := m.workers[(from+i)%n]
		var batch []wireTask
		for w.active < w.slots {
			l := m.grant(w, slots, now)
			if l == nil {
				break
			}
			batch = append(batch, l.wireTask)
		}
		if len(batch) > 0 {
			acts = append(acts, actSend{w, &frame{Type: msgTask, Job: m.cfg.JobID, Tasks: batch}})
			m.turn = (from+i)%n + 1
		}
	}
	return acts
}

// grant leases w its share of the frontier (dexplore.Frontier.Grant is the
// rule), or nothing when there is nothing to share.
func (m *machine) grant(w *workerConn, slots int, now time.Time) *lease {
	roots, budget := m.front.Grant(slots, m.maxRoots, m.report.Interleavings)
	if roots == nil {
		return nil
	}
	m.nextLease++
	l := &lease{
		wireTask: wireTask{Lease: m.nextLease, Budget: budget, Tasks: make([]*core.SubtreeTask, len(roots))},
		roots:    roots,
		conn:     w,
		granted:  now,
		expires:  now.Add(m.cfg.LeaseTTL),
	}
	for i, p := range roots {
		l.Tasks[i] = p.task
	}
	m.leases = append(m.leases, l)
	w.active++
	return l
}

// requeue forfeits every held lease lost says is lost: its budget returns to
// the pool and its roots go back to the frontier (while draining, for the
// final cut), each counting one more loss — past the redelivery cap the
// exploration fails. Whatever result the lease still gets is dropped.
func (m *machine) requeue(lost func(*lease) bool) {
	held := m.leases[:0]
	for _, l := range m.leases {
		if !lost(l) {
			held = append(held, l)
			continue
		}
		l.conn.active--
		m.front.Release(l.Budget)
		m.requeues++
		for _, p := range l.roots {
			if p.lost++; p.lost > m.maxRedeliveries {
				m.fail(fmt.Errorf("dcoord: task %s lost its lease %d times (redelivery cap %d): poison task or cluster too unstable",
					p.task.Decisions, p.lost, m.maxRedeliveries))
				continue
			}
			m.front.Tasks = append(m.front.Tasks, p)
		}
	}
	clear(m.leases[len(held):])
	m.leases = held
}

// checkDelta vets a lease's decoded delta — untrusted input, whose counts
// Checkpoint.Validate found non-negative — against what the lease allowed: at
// most budget replays (0 = no bound), no more outcomes than replays, at least
// one replay per root it completed and none without, and the root run's
// aggregates only from a lease over the root.
func checkDelta(rep *core.Report, completed, budget int, overRoot bool) error {
	n := rep.Interleavings
	switch {
	case budget > 0 && n > budget:
		return fmt.Errorf("reports %d replays on a budget of %d", n, budget)
	case rep.Deadlocks > n || len(rep.Errors) > n || rep.Sampled > n || rep.SampledDistinct > n:
		return fmt.Errorf("reports more outcomes than its %d replays", n)
	case completed > n || (completed == 0) != (n == 0):
		return fmt.Errorf("reports %d replays for %d subtrees explored", n, completed)
	case !overRoot && (rep.FirstTrace != nil || rep.WildcardsAnalyzed != 0 || len(rep.Unsafe) > 0):
		return errors.New("carries the self-discovery run's trace or alerts without holding the root task")
	}
	return nil
}

// decode turns a result frame into its event; it reads only ecfg.
func (m *machine) decode(w *workerConn, res *WireResult) evResult {
	ev := evResult{w: w, res: res}
	switch {
	case res.bad != nil:
		ev.bad = fmt.Errorf("has a delta that does not decode: %w", res.bad)
	case res.Delta == nil:
		ev.bad = errors.New("has no delta")
	default:
		ev.delta, ev.left, ev.bad = res.Delta.Restore("", &m.ecfg)
	}
	return ev
}

// result merges one returned lease and reports the replays it added — if the
// lease is held, by this (lease id, connection). Any other result is dropped
// unread: its lease was lost, and requeue put all of its roots back, so
// merging it as well would count them twice. A held lease's untouched roots
// go back to the frontier from the lease itself, ahead of the leftovers;
// every other root is done.
func (m *machine) result(ev evResult) int {
	res := ev.res
	i := slices.IndexFunc(m.leases, func(l *lease) bool { return l.Lease == res.Lease && l.conn == ev.w })
	if i < 0 {
		return 0
	}
	l := m.leases[i]
	m.leases = slices.Delete(m.leases, i, i+1)
	l.conn.active--
	m.front.Release(l.Budget)
	u, bad := res.Untouched, ev.bad
	if bad == nil && (u < 0 || u > len(l.Tasks)) {
		bad = fmt.Errorf("counts %d of its %d roots untouched", u, len(l.Tasks))
	}
	overRoot := false
	if bad == nil {
		started := l.Tasks[u:]
		overRoot = slices.ContainsFunc(started, isRoot)
		var hang []int
		if hang, bad = res.Delta.HangFrom(l.Tasks); bad == nil {
			if bad = checkLeftovers(&m.flat, l.Tasks, u, ev.left, hang); bad == nil {
				bad = checkDelta(ev.delta, len(started), l.Budget, overRoot)
			}
		}
	}
	switch {
	case res.Fatal != "":
		m.fail(fmt.Errorf("dcoord: worker %s: %s", ev.w.name, res.Fatal))
		return 0
	case bad != nil:
		m.fail(fmt.Errorf("dcoord: worker %s: result for lease %d %w", ev.w.name, res.Lease, bad))
		return 0
	}
	m.front.Tasks = append(m.front.Tasks, l.roots[:u]...)
	for _, t := range ev.left {
		m.front.Tasks = append(m.front.Tasks, pending{task: t})
	}
	m.front.RootDone = m.front.RootDone || overRoot
	for _, e := range ev.delta.Errors {
		e.Index += m.report.Interleavings
	}
	m.report.Merge(ev.delta)
	ev.w.completed += ev.delta.Interleavings
	if m.cfg.Fingerprint.StopOnFirstError && len(ev.delta.Errors) > 0 {
		m.stopped = true
	}
	return ev.delta.Interleavings
}

// isRoot reports whether t is the self-discovery run, the one task with no
// decision set (as core and dexplore tell it).
func isRoot(t *core.SubtreeTask) bool { return t.Decisions == nil }

// checkLeftovers vets the subtrees a held lease's result hands back, by their
// decisions alone: each must lie strictly below the root of the lease it
// hangs from (hang, per leftover, from Checkpoint.HangFrom), which its worker
// started, and be a walk step below the root task or a step of its own walk;
// and none may be listed twice. A subtree waiting in the frontier, held by
// another lease or explored lies below no started root of a held lease. Every
// root and leftover is flattened once, into flat's storage.
func checkLeftovers(flat *core.Flattener, roots []*core.SubtreeTask, untouched int, left []*core.SubtreeTask, hang []int) error {
	sets := make([]*core.Decisions, 0, len(roots)+len(left))
	for _, t := range roots {
		sets = append(sets, t.Decisions)
	}
	for _, t := range left {
		sets = append(sets, t.Decisions)
	}
	sets = flat.Flatten(sets)
	rootSets, leftSets := sets[:len(roots)], sets[len(roots):]
	for i, t := range left {
		r := hang[i]
		root, set := rootSets[r], leftSets[i]
		switch {
		case r < untouched:
			return fmt.Errorf("hands back subtree %s below root %d, which it never started", t.Decisions, r)
		case t.Sample != nil && !isRoot(roots[r]) && walk(roots[r]) != walk(t), !root.Within(set) || root.Len() >= set.Len():
			return fmt.Errorf("hands back subtree %s, which is not below its root %d", t.Decisions, r)
		}
	}
	// Equal sets of one walk sort next to each other.
	order := make([]int, len(left))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(walk(left[a]), walk(left[b])), leftSets[a].Compare(leftSets[b]))
	})
	for k := 1; k < len(order); k++ {
		a, b := order[k-1], order[k]
		if walk(left[a]) == walk(left[b]) && leftSets[a].Compare(leftSets[b]) == 0 {
			return fmt.Errorf("hands back subtree %s twice", left[a].Decisions)
		}
	}
	return nil
}

// walk is the sampled walk t is a step of, or -1 for an exhaustive task.
func walk(t *core.SubtreeTask) int {
	if t.Sample == nil {
		return -1
	}
	return t.Sample.Walk
}

// fail records the first fatal error and stops issuing.
func (m *machine) fail(err error) {
	if m.runErr == nil {
		m.runErr = err
	}
	m.stopped = true
}

// finalize ends the exploration: terminal report state (cap flag,
// deterministic error order), the final cut, and the workers to tell.
func (m *machine) finalize() actFinalize {
	m.finished = true
	m.report.Seal(&m.ecfg, len(m.front.Tasks) > 0)
	m.report.SortErrors()
	f := actFinalize{conns: slices.Clone(m.workers)}
	if m.cfg.CheckpointPath != "" {
		f.cut = m.checkpoint()
	}
	return f
}

// checkpoint cuts the state in the dexplore.Checkpoint format: the frontier
// plus every held lease's roots.
func (m *machine) checkpoint() *dexplore.Checkpoint {
	frontier := make([]*core.SubtreeTask, 0, len(m.front.Tasks))
	for _, p := range m.front.Tasks {
		frontier = append(frontier, p.task)
	}
	for _, l := range m.leases {
		frontier = append(frontier, l.Tasks...)
	}
	return dexplore.NewCheckpoint(m.cfg.Fingerprint.Workload, &m.ecfg, m.report, frontier)
}
