package dcoord

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// pending is one frontier entry: a task and its key, rendered once when the
// task enters the frontier and carried from there to the lease, the task
// frame and the result's echo.
type pending struct {
	key  string
	task *core.SubtreeTask
}

// lease is one outstanding assignment — subtrees taken from the shallow end
// of the frontier and the replays the worker may spend on them, as the task
// frame carries them — and who holds it since when.
type lease struct {
	wireTask
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
	// too. Every key in its Tasks is distinct, not done, and in no held lease.
	front     dexplore.Frontier[pending]
	leases    []*lease
	nextLease uint64 // = leases granted so far
	// keys: every subtree key had, false while waiting or leased, true once explored.
	keys        map[string]bool
	redelivered map[string]int // requeue count per root key
	requeues    int            // leases lost and requeued
	report      *core.Report
	stopped     bool // drain: no new leases (Stop, StopOnFirstError or a failure)
	noFinalCkp  bool // Abort: crash semantics, skip the final checkpoint
	finished    bool
	runErr      error
	// cad says when a periodic cut falls due (with a CheckpointPath), on the
	// events' clock, which starts at the first event.
	cad dexplore.Cadence
}

// Events: what a read loop, the janitor, the driver or Stop/Abort observed.
type (
	evAttach     struct{ w *workerConn } // an announced worker joins
	evHeartbeat  struct{ w *workerConn } // renews w's leases
	evDisconnect struct{ w *workerConn } // w's connection died or a write to it failed
	evTick       struct{}                // the janitor: expire leases
	evStop       struct{}                // drain
	evAbort      struct{ err error }     // fail, with crash semantics
	// evSaved: the periodic cut is written, or the final one failed with err.
	evSaved struct{ err error }
	// evResult is one returned lease, decoded outside the lock (decode).
	evResult struct {
		w     *workerConn
		res   *WireResult
		delta *core.Report
		left  []pending
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
	// actFinalize: the final cut (nil without a path or after Abort) and
	// jobdone; a failed write of the cut is reported as evSaved.
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
	case evAbort:
		m.fail(ev.err)
		m.noFinalCkp = true
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
		wireTask: wireTask{Lease: m.nextLease, Budget: budget, Keys: make([]string, len(roots)), Tasks: make([]*core.SubtreeTask, len(roots))},
		conn:     w,
		granted:  now,
		expires:  now.Add(m.cfg.LeaseTTL),
	}
	for i, p := range roots {
		l.Keys[i], l.Tasks[i] = p.key, p.task
	}
	m.leases = append(m.leases, l)
	w.active++
	return l
}

// requeue forfeits every held lease lost says is lost: its budget returns to
// the pool and each root no competing delivery has completed goes back to the
// frontier (while draining, for the final cut), under the per-root
// redelivery cap — past it the exploration fails.
func (m *machine) requeue(lost func(*lease) bool) {
	held := m.leases[:0]
	for _, l := range m.leases {
		if !lost(l) {
			held = append(held, l)
			continue
		}
		l.conn.active--
		m.front.Release(l.Budget)
		requeued := false
		for i, key := range l.Keys {
			if m.keys[key] {
				continue
			}
			requeued = true
			m.redelivered[key]++
			if n := m.redelivered[key]; n > m.maxRedeliveries {
				m.fail(fmt.Errorf("dcoord: task %s lost its lease %d times (redelivery cap %d): poison task or cluster too unstable",
					key, n, m.maxRedeliveries))
				continue
			}
			m.front.Tasks = append(m.front.Tasks, pending{key, l.Tasks[i]})
		}
		if requeued {
			m.requeues++
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
	ev := evResult{w: w, res: res, bad: errors.New("has no delta")}
	if d := res.Delta; d != nil {
		rep, tasks, err := d.Restore("", &m.ecfg)
		ev.delta, ev.left, ev.bad = rep, keyed(tasks), err
	}
	return ev
}

// result merges one returned lease and reports the replays it added: the
// delta folds into the report, the leftovers join the frontier, and every
// leased root they do not hand back is done. Dedup is per root and all or
// nothing — a delta is one sum, so if a competing delivery completed any of
// its roots the whole result is dropped (and the roots only it held go back).
// A held lease's echoed keys only have to agree with it; the echo is all that
// identifies a late result whose lease already expired.
func (m *machine) result(ev evResult) int {
	res, bad := ev.res, ev.bad
	keys, budget := res.Keys, 0
	var l *lease
	if i := slices.IndexFunc(m.leases, func(l *lease) bool { return l.Lease == res.Lease && l.conn == ev.w }); i >= 0 {
		l = m.leases[i]
		m.leases = slices.Delete(m.leases, i, i+1)
		l.conn.active--
		m.front.Release(l.Budget)
		keys, budget = l.Keys, l.Budget
		if !slices.Equal(keys, res.Keys) {
			bad = fmt.Errorf("echoes keys %q, the lease is for %q", res.Keys, keys)
		}
	}
	held := l != nil
	// What the result says of its roots: which it hands back untouched, and
	// whether a competing delivery completed one already.
	roots := make(map[string]bool, len(keys)) // key → handed back
	stale := false
	for _, k := range keys {
		roots[k] = false
		stale = stale || m.keys[k]
	}
	completed := len(roots)
	handed := make(map[string]bool, len(ev.left))
	for _, p := range ev.left {
		_, own := roots[p.key]
		if _, had := m.keys[p.key]; handed[p.key] || had && !own && !stale {
			bad = fmt.Errorf("hands back subtree %s twice, or one it was not leased that is waiting, leased or explored", p.key)
		}
		handed[p.key] = true
		if back, ok := roots[p.key]; ok && !back {
			roots[p.key] = true
			completed--
		}
	}
	if _, overRoot := roots[rootKey]; bad == nil {
		bad = checkDelta(ev.delta, completed, budget, overRoot)
	}
	before := m.report.Interleavings
	switch {
	case res.Fatal != "":
		m.fail(fmt.Errorf("dcoord: worker %s: %s", ev.w.name, res.Fatal))
	case bad != nil:
		m.fail(fmt.Errorf("dcoord: worker %s: result for lease %d %w", ev.w.name, res.Lease, bad))
	case stale:
		// Late duplicate of requeued-and-completed work: at-least-once
		// delivery, effectively-once merge.
		if held {
			for i, key := range keys {
				if !m.keys[key] {
					m.front.Tasks = append(m.front.Tasks, pending{key, l.Tasks[i]})
				}
			}
		}
	case held || m.lateMergeable(roots, ev.delta.Interleavings):
		m.merge(ev.w, ev.delta, ev.left, roots, held)
	}
	return m.report.Interleavings - before
}

// lateMergeable reports whether a result that outlived its lease can still be
// merged: each of its roots (none done) must wait in the frontier or under a
// newer lease, where its requeue put it — a key from nowhere names no subtree
// of this exploration — and the cap must have room for its replays, whose
// budget went back to the pool when the lease was lost.
func (m *machine) lateMergeable(roots map[string]bool, replays int) bool {
	if replays > m.front.Room(m.report.Interleavings) {
		return false
	}
	found := 0
	for _, p := range m.front.Tasks {
		if _, ok := roots[p.key]; ok {
			found++
		}
	}
	for _, l := range m.leases {
		for _, key := range l.Keys {
			if _, ok := roots[key]; ok {
				found++
			}
		}
	}
	return found == len(roots)
}

// merge folds a vetted delta into the exploration. roots maps each root of
// the result to whether it was handed back. A late result's roots were
// requeued when its lease was lost: the ones it hands back are already
// waiting, and the ones it completed leave the frontier here (a copy under a
// newer lease is dropped when that lease returns).
func (m *machine) merge(w *workerConn, delta *core.Report, left []pending, roots map[string]bool, held bool) {
	for k, back := range roots {
		if !back {
			m.keys[k] = true
		}
	}
	if !held {
		waiting := func(p pending) bool { _, ok := roots[p.key]; return ok }
		m.front.Tasks = slices.DeleteFunc(m.front.Tasks, func(p pending) bool { return m.keys[p.key] })
		left = slices.DeleteFunc(left, waiting)
	}
	for _, p := range left {
		m.keys[p.key] = false
	}
	m.front.Tasks = append(m.front.Tasks, left...)
	m.front.RootDone = m.keys[rootKey]
	for _, e := range delta.Errors {
		e.Index += m.report.Interleavings
	}
	m.report.Merge(delta)
	w.completed += delta.Interleavings
	if m.cfg.Fingerprint.StopOnFirstError && len(delta.Errors) > 0 {
		m.stopped = true
	}
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
	if m.cfg.CheckpointPath != "" && !m.noFinalCkp {
		f.cut = m.checkpoint()
	}
	return f
}

// checkpoint cuts the state in the dexplore.Checkpoint format: the frontier
// plus every leased root not already completed by a competing delivery.
func (m *machine) checkpoint() *dexplore.Checkpoint {
	frontier := make([]*core.SubtreeTask, 0, len(m.front.Tasks))
	for _, p := range m.front.Tasks {
		frontier = append(frontier, p.task)
	}
	for _, l := range m.leases {
		for i, key := range l.Keys {
			if !m.keys[key] {
				frontier = append(frontier, l.Tasks[i])
			}
		}
	}
	return dexplore.NewCheckpoint(m.cfg.Fingerprint.Workload, &m.ecfg, m.report, frontier)
}
