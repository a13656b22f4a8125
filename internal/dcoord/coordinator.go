package dcoord

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// Config is the one statement of how an exploration is run, whoever starts
// it: a one-shot New + ListenAndServe and a queued Server.RunJob take the same
// one. The coordinator never replays anything itself — it owns the frontier,
// the leases and the merged report — so it needs no program, only the spec of
// the exploration.
type Config struct {
	// Fingerprint is the exploration: the spec announced to every worker
	// (Check decides which pinned ones may replay it), normalized and
	// validated by New. Its MaxInterleavings caps the replays merged (0 =
	// unlimited), and its StopOnFirstError stops issuing new leases once a
	// failing interleaving is reported; in-flight leases drain (at most one
	// time slice per slot) and are counted.
	Fingerprint JobSpec
	// JobID tags the exploration's frames: workers route tasks and results by
	// it. Defaults to the workload name.
	JobID string
	// LeaseTTL is how long a lease survives without a heartbeat before its
	// subtrees are requeued (default defaultLeaseTTL). It is the pool's, not
	// the job's: Server.RunJob overwrites it with what its welcomes advertised.
	LeaseTTL time.Duration
	// CheckpointPath, if non-empty, receives a frontier checkpoint (the
	// dexplore.Checkpoint format) periodically and, from a one-shot
	// coordinator, at the end, so a killed coordinator resumes with Resume. A
	// Server.RunJob returns the last cut to its caller instead of writing it.
	CheckpointPath string
	// CheckpointEvery, when positive, is the merged replays between periodic
	// checkpoint writes (at most one per returned lease); 0 = one write per
	// dexplore.DefaultCheckpointInterval.
	CheckpointEvery int
	// Resume, if non-nil, seeds the exploration from a saved checkpoint
	// instead of leasing the initial self-discovery run. Validated against
	// Fingerprint.
	Resume *dexplore.Checkpoint
	// OnProgress, if non-nil, receives a throughput snapshot every
	// ProgressEvery (dexplore.DefaultProgressEvery) while the exploration runs.
	OnProgress func(dexplore.Progress)
	// ProgressEvery is the progress-callback period.
	ProgressEvery time.Duration
}

// Run policy: what the cluster layer does without being told, each value
// written once (the lease's shape — slice, roots, budget floor — is
// dexplore/lease.go's, shared with the in-process engine). None is an option:
// one value of each is in use; an in-package test that needs another sets the
// Coordinator field it initializes, between New and the first worker.
const (
	// A lease survives defaultLeaseTTL without a heartbeat (the welcome frame
	// advertises the server's TTL; a worker heartbeats at a third of it) and
	// leaseAgeTTLs TTLs with them: a hung replay keeps heartbeats flowing.
	defaultLeaseTTL = 10 * time.Second
	leaseAgeTTLs    = 30
	// redeliveryCap is how often one subtree may lose its lease before the
	// exploration aborts: a poison task must not loop forever.
	redeliveryCap = 3
	// Either side gives a frame write writeTimeout and the handshake's answer
	// helloTimeout; minTick floors the janitor's (TTL/4) and the heartbeat's
	// (TTL/3) ticker.
	writeTimeout = 10 * time.Second
	helloTimeout = 30 * time.Second
	minTick      = 5 * time.Millisecond
	// A worker gives one dial dialTimeout, backs off backoffInitial doubling to
	// backoffMax between failed dials, and gives up after maxDials in a row.
	dialTimeout    = 5 * time.Second
	backoffInitial = 100 * time.Millisecond
	backoffMax     = 3 * time.Second
	maxDials       = 30
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

// wireStats counts the frames and bytes the connections of one listener
// moved, each direction. A served coordinator shares its Server's: the
// connections can outlive the job.
type wireStats struct {
	framesIn, framesOut, bytesIn, bytesOut atomic.Int64
}

// workerConn is one connected worker session.
type workerConn struct {
	conn  net.Conn
	r     *bufio.Reader // every read goes through it, the hello included
	wire  *wireStats
	name  string
	slots int
	since time.Time
	// pinned is the exploration the worker's hello said it was built for; nil
	// for an any-workload worker, which builds whatever is announced.
	pinned *JobSpec

	wmu sync.Mutex // serializes frame writes (results race heartbeats)

	// guarded by Coordinator.mu
	active    int // leases currently held
	completed int // replays merged from this session
	gone      bool
}

// send writes one frame under the connection's write lock.
func (w *workerConn) send(fr *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return w.write(fr)
}

// write writes one frame with a deadline, so a stalled worker cannot wedge
// the coordinator. Caller holds w.wmu.
func (w *workerConn) write(fr *frame) error {
	_ = w.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	n, err := writeFrame(w.conn, fr)
	if err == nil {
		w.wire.framesOut.Add(1)
		w.wire.bytesOut.Add(int64(n))
	}
	return err
}

// recv reads the connection's next frame, of at most limit payload bytes.
func (w *workerConn) recv(limit int) (*frame, error) {
	fr, n, err := readFrame(w.r, limit)
	if err == nil {
		w.wire.framesIn.Add(1)
		w.wire.bytesIn.Add(int64(n))
	}
	return fr, err
}

// acceptHello reads a new connection's opening frame (bounded in size and
// time: the peer is unidentified) and builds its session. It returns nil,
// with the connection closed, unless the frame is a hello.
func acceptHello(conn net.Conn, wire *wireStats) (*workerConn, *frame) {
	w := &workerConn{conn: conn, r: bufio.NewReader(conn), wire: wire, since: time.Now()}
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	fr, err := w.recv(maxHelloSize)
	if err != nil || fr.Type != msgHello {
		conn.Close()
		return nil, nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	w.name, w.slots, w.pinned = fr.Worker, fr.Slots, fr.Spec
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}
	if w.slots < 1 {
		w.slots = 1
	}
	return w, fr
}

// Coordinator owns one distributed exploration: it leases subtrees to the
// workers its Server attaches, merges their report deltas, and terminates
// when the frontier and all leases drain. The Server owns the listener, the
// connections and the read loops; a one-shot coordinator (ListenAndServe)
// brings its own.
type Coordinator struct {
	cfg Config
	// ecfg is the exploration the spec describes, as the ExplorerConfig
	// fields RootTask, Report.Seal and the checkpoint codec consult (no
	// program: the coordinator never replays).
	ecfg core.ExplorerConfig

	// srv is the Server running this exploration and wire its frame counters
	// (the coordinator's own until a Server starts it).
	srv  *Server
	wire *wireStats
	// ckp writes cfg.CheckpointPath (nothing without one) and says when;
	// ckpBefore is what the Server's earlier jobs wrote.
	ckp       *dexplore.CheckpointWriter
	ckpBefore int64

	mu sync.Mutex
	// maxRoots, maxLeaseAge and maxRedeliveries are dexplore.MaxLeaseRoots,
	// leaseAgeTTLs × the TTL and redeliveryCap; tests vary them.
	maxRoots        int
	maxLeaseAge     time.Duration
	maxRedeliveries int
	workers         map[*workerConn]struct{}
	// front is the frontier and the grant rule the in-process engine runs
	// too. Every key in its Tasks is distinct, not done, and in no held lease.
	front       dexplore.Frontier[pending]
	leases      map[uint64]*lease
	nextLease   uint64          // = leases granted so far
	done        map[string]bool // keys of leased roots explored (dedup after requeue)
	redelivered map[string]int  // requeue count per root key
	requeues    int             // leases lost and requeued
	report      *core.Report
	stopped     bool // drain: no new leases (Stop or StopOnFirstError)
	noFinalCkp  bool // Abort: crash semantics, skip the final checkpoint
	finished    bool
	runErr      error
	// left is the final cut of an exploration run by Server.RunJob, which
	// hands it to its caller: only that knows whether anyone will read it.
	left        *dexplore.Checkpoint
	start       time.Time
	rate        *dexplore.RateTracker
	doneCh      chan struct{}
	janitorStop chan struct{}
	monitorStop chan struct{}
	monitorWG   sync.WaitGroup
}

// New creates a coordinator. It validates the spec, and Resume against it,
// and seeds either the checkpointed frontier or the root self-discovery task.
func New(cfg Config) (*Coordinator, error) {
	cfg.Fingerprint.Normalize()
	if err := cfg.Fingerprint.Validate(); err != nil {
		return nil, err
	}
	if cfg.JobID == "" {
		cfg.JobID = cfg.Fingerprint.Workload
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	c := &Coordinator{
		cfg:             cfg,
		ecfg:            cfg.Fingerprint.ExplorerConfig(),
		wire:            &wireStats{},
		ckp:             dexplore.NewCheckpointWriter(cfg.CheckpointPath, cfg.CheckpointEvery),
		maxRoots:        dexplore.MaxLeaseRoots,
		maxLeaseAge:     leaseAgeTTLs * cfg.LeaseTTL,
		maxRedeliveries: redeliveryCap,
		front:           dexplore.Frontier[pending]{Max: cfg.Fingerprint.MaxInterleavings},
		workers:         make(map[*workerConn]struct{}),
		leases:          make(map[uint64]*lease),
		done:            make(map[string]bool),
		redelivered:     make(map[string]int),
		report:          &core.Report{},
		rate:            dexplore.NewRateTracker(dexplore.RateWindow),
		doneCh:          make(chan struct{}),
		janitorStop:     make(chan struct{}),
		monitorStop:     make(chan struct{}),
		start:           time.Now(),
	}
	c.ecfg.MaxInterleavings = cfg.Fingerprint.MaxInterleavings
	if ckp := cfg.Resume; ckp != nil {
		rep, frontier, err := ckp.Restore(cfg.Fingerprint.Workload, &c.ecfg)
		if err != nil {
			return nil, err
		}
		// A key the checkpoint lists twice is one subtree. Its frontier may
		// still contain the root task (a drain before the root completed);
		// otherwise the root is done.
		c.report = rep
		seen := make(map[string]bool, len(frontier))
		for _, p := range keyed(frontier) {
			if !seen[p.key] {
				seen[p.key] = true
				c.front.Tasks = append(c.front.Tasks, p)
			}
		}
		if !seen[rootKey] {
			c.done[rootKey], c.front.RootDone = true, true
		}
	} else {
		c.front.Tasks = keyed([]*core.SubtreeTask{core.RootTask(&c.ecfg)})
	}
	return c, nil
}

// keyed turns tasks into frontier entries, rendering each one's key — the
// one place a key is computed, and outside c.mu.
func keyed(tasks []*core.SubtreeTask) []pending {
	out := make([]pending, len(tasks))
	for i, t := range tasks {
		out[i] = pending{key: taskKey(t), task: t}
	}
	return out
}

// run starts the janitor and the progress monitor. A resumed-but-already-
// complete checkpoint (or an immediate Stop) must not wait for a worker that
// will never be needed.
func (c *Coordinator) run() {
	c.ckp.Begin()
	go c.janitor()
	if c.cfg.OnProgress != nil {
		c.monitorWG.Add(1)
		go func() {
			defer c.monitorWG.Done()
			dexplore.Monitor(c.cfg.ProgressEvery, c.monitorStop, func() { c.cfg.OnProgress(c.progress()) })
		}()
	}
	c.mu.Lock()
	c.unlockAndAdvance()
}

// unlockAndAdvance releases c.mu and does what the state it leaves calls
// for: the exploration ends if it is over (reported), and otherwise every free
// slot the frontier has work for is granted a lease.
func (c *Coordinator) unlockAndAdvance() bool {
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	} else {
		c.dispatch()
	}
	return fin
}

// attachWorker registers an already-handshaken connection for this job,
// resetting its per-job counters. It reports false when the exploration has
// already finished (the worker then idles in the Server's pool).
func (c *Coordinator) attachWorker(w *workerConn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.finished || w.gone {
		return false
	}
	w.active = 0
	w.completed = 0
	c.workers[w] = struct{}{}
	return true
}

// ListenAndServe runs the exploration one-shot: on a private Server,
// listening on addr, whose only job it is. It returns the bound listener (for
// its address) at once; use Wait for the result. The server ends with the
// exploration — every worker told done, connections and listener closed —
// before Wait is released.
func (c *Coordinator) ListenAndServe(addr string) (net.Listener, error) {
	s := NewServer(ServerConfig{LeaseTTL: c.cfg.LeaseTTL})
	s.only = &c.cfg.Fingerprint
	ln, err := s.ListenAndServe(addr)
	if err != nil {
		return nil, err
	}
	return ln, s.start(c)
}

// Wait blocks until the exploration ends and returns the merged report (or
// the first fatal error).
func (c *Coordinator) Wait() (*core.Report, error) {
	<-c.doneCh
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil {
		return nil, c.runErr
	}
	return c.report, nil
}

// Stop drains gracefully: no new leases are issued, in-flight replays finish
// and are merged, a final checkpoint preserves the remaining frontier, and
// Wait returns the partial report. Safe to call from any goroutine (the
// SIGTERM path).
func (c *Coordinator) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.unlockAndAdvance()
}

// Abort ends the exploration with an error and crash semantics: no final
// checkpoint is written (periodic ones stand), and Wait returns err. The
// Server's kill path uses it so a simulated crash leaves exactly the state a
// real one would. Outstanding leases must drain first (dropWorker or the
// janitor requeues them); finalize fires from whichever path empties them.
func (c *Coordinator) Abort(err error) {
	c.mu.Lock()
	c.failLocked(err)
	c.noFinalCkp = true
	c.unlockAndAdvance()
}

// dropWorker unregisters a disconnected (or write-failed) worker and
// requeues every lease it held.
func (c *Coordinator) dropWorker(w *workerConn) {
	c.mu.Lock()
	if w.gone {
		c.mu.Unlock()
		return
	}
	w.gone = true
	delete(c.workers, w)
	c.requeueLocked(func(l *lease) bool { return l.conn == w })
	c.unlockAndAdvance()
	w.conn.Close()
}

// releaseLocked ends a held lease: its slot is free and its budget back in
// the pool. Caller holds c.mu.
func (c *Coordinator) releaseLocked(l *lease) {
	delete(c.leases, l.Lease)
	l.conn.active--
	c.front.Release(l.Budget)
}

// requeueLocked forfeits every held lease lost says is lost: its budget
// returns to the pool and each root no competing delivery has completed goes
// back to the frontier, under the per-root redelivery cap — past it the
// exploration fails. Caller holds c.mu.
func (c *Coordinator) requeueLocked(lost func(*lease) bool) {
	for _, l := range c.leases {
		if !lost(l) {
			continue
		}
		c.releaseLocked(l)
		requeued := false
		for i, key := range l.Keys {
			if c.done[key] {
				continue
			}
			requeued = true
			c.redelivered[key]++
			if n := c.redelivered[key]; n > c.maxRedeliveries {
				c.failLocked(fmt.Errorf("dcoord: task %s lost its lease %d times (redelivery cap %d): poison task or cluster too unstable",
					key, n, c.maxRedeliveries))
				continue
			}
			// While draining the task is kept for the final checkpoint, not reissued.
			c.front.Tasks = append(c.front.Tasks, pending{key, l.Tasks[i]})
		}
		if requeued {
			c.requeues++
		}
	}
}

// renewLeases extends every lease held by w (heartbeat arrival).
func (c *Coordinator) renewLeases(w *workerConn) {
	now := time.Now()
	c.mu.Lock()
	for _, l := range c.leases {
		if l.conn == w {
			l.expires = now.Add(c.cfg.LeaseTTL)
		}
	}
	c.mu.Unlock()
}

// dispatch grants a lease to every free worker slot while the frontier has
// subtrees (and the cap replays) to share, one frame per worker per round.
// Frame writes happen outside c.mu; a failed write drops the worker (which
// requeues its leases).
func (c *Coordinator) dispatch() {
	type send struct {
		w  *workerConn
		fr *frame
	}
	var sends []send
	now := time.Now()
	c.mu.Lock()
	if !c.stopped && c.runErr == nil && !c.finished {
		slots := 0
		for w := range c.workers {
			slots += w.slots
		}
		for w := range c.workers {
			var batch []wireTask
			for w.active < w.slots {
				l := c.grantLocked(w, slots, now)
				if l == nil {
					break
				}
				batch = append(batch, l.wireTask)
			}
			if len(batch) > 0 {
				sends = append(sends, send{w: w, fr: &frame{Type: msgTask, Job: c.cfg.JobID, Tasks: batch}})
			}
		}
	}
	c.mu.Unlock()
	for _, s := range sends {
		if err := s.w.send(s.fr); err != nil {
			c.dropWorker(s.w)
		}
	}
}

// grantLocked leases w its share of the frontier (dexplore.Frontier.Grant is
// the rule), or nothing when there is nothing to share. Caller holds c.mu.
func (c *Coordinator) grantLocked(w *workerConn, slots int, now time.Time) *lease {
	roots, budget := c.front.Grant(slots, c.maxRoots, c.report.Interleavings)
	if roots == nil {
		return nil
	}
	c.nextLease++
	l := &lease{
		wireTask: wireTask{Lease: c.nextLease, Budget: budget, Keys: make([]string, len(roots)), Tasks: make([]*core.SubtreeTask, len(roots))},
		conn:     w,
		granted:  now,
		expires:  now.Add(c.cfg.LeaseTTL),
	}
	for i, p := range roots {
		l.Keys[i], l.Tasks[i] = p.key, p.task
	}
	c.leases[l.Lease] = l
	w.active++
	return l
}

// checkDelta vets a lease's decoded delta — untrusted input — against what
// the lease allowed: counts in range, at most budget replays (0 = no bound),
// at least one replay per root it completed and none without, and the root
// run's aggregates only from a lease over the root.
func checkDelta(rep *core.Report, completed, budget int, overRoot bool) error {
	n := rep.Interleavings
	switch {
	case n < 0 || rep.Deadlocks < 0 || rep.DecisionPoints < 0 || rep.AutoAbstracted < 0 || rep.Sampled < 0 || rep.StaticPruned < 0:
		return errors.New("reports a negative count")
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

// handleResult merges one returned lease: the report delta folds into the
// report, the leftover frontier joins the coordinator's, and every leased
// root the leftovers do not hand back is done. Dedup is per root and all or
// nothing — a delta is one sum, so if any of its roots was already completed
// by a competing delivery the whole result is dropped (and the roots only it
// held go back to the frontier). While the lease is held its roots are the
// lease's own and the echoed keys only have to agree with them; the echo is
// all that identifies a late result whose lease already expired.
func (c *Coordinator) handleResult(w *workerConn, res *WireResult) {
	// Decode outside the lock: c.ecfg is read-only after New.
	var delta *core.Report
	var left []pending
	bad := errors.New("has no delta")
	if d := res.Delta; d != nil {
		rep, tasks, err := d.Restore("", &c.ecfg)
		delta, left, bad = rep, keyed(tasks), err
	}

	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	keys, budget := res.Keys, 0
	l, held := c.leases[res.Lease]
	if held = held && l.conn == w; held {
		c.releaseLocked(l)
		keys, budget = l.Keys, l.Budget
		if !slices.Equal(keys, res.Keys) {
			bad = fmt.Errorf("echoes keys %q, the lease is for %q", res.Keys, keys)
		}
	}
	// What the result says of its roots: which it hands back untouched, and
	// whether a competing delivery completed one already.
	roots := make(map[string]bool, len(keys)) // key → handed back
	stale := false
	for _, k := range keys {
		roots[k] = false
		stale = stale || c.done[k]
	}
	completed := len(roots)
	handed := make(map[string]bool, len(left))
	for _, p := range left {
		if handed[p.key] || (c.done[p.key] && !stale) {
			bad = fmt.Errorf("hands back subtree %s twice, or after it was explored", p.key)
		}
		handed[p.key] = true
		if back, ok := roots[p.key]; ok && !back {
			roots[p.key] = true
			completed--
		}
	}
	if _, overRoot := roots[rootKey]; bad == nil {
		bad = checkDelta(delta, completed, budget, overRoot)
	}
	before := c.report.Interleavings
	switch {
	case res.Fatal != "":
		c.failLocked(fmt.Errorf("dcoord: worker %s: %s", w.name, res.Fatal))
	case bad != nil:
		c.failLocked(fmt.Errorf("dcoord: worker %s: result for lease %d %w", w.name, res.Lease, bad))
	case stale:
		// Late duplicate of requeued-and-completed work: at-least-once
		// delivery, effectively-once merge.
		if held {
			for i, key := range keys {
				if !c.done[key] {
					c.front.Tasks = append(c.front.Tasks, pending{key, l.Tasks[i]})
				}
			}
		}
	case held || c.lateMergeableLocked(roots, delta.Interleavings):
		c.mergeLocked(w, delta, left, roots, held)
	}
	// A periodic checkpoint that falls due is cut here, under c.mu, and
	// written once the next leases are out: no worker waits for an fsync. An
	// exploration that is over gets its final cut instead.
	fin := c.finishable()
	var ckp *dexplore.Checkpoint
	if !fin && c.ckp.Due(c.report.Interleavings-before) {
		ckp = c.checkpointLocked()
	}
	c.mu.Unlock()

	if fin {
		c.finalize()
		return
	}
	c.dispatch()
	if ckp != nil {
		c.ckp.Periodic(ckp)
	}
}

// lateMergeableLocked reports whether a result that outlived its lease can
// still be merged: each of its roots (none of them done) must be waiting in
// the frontier or under a newer lease, where its requeue put it — a key from
// nowhere names no subtree of this exploration — and the cap must have room
// for its replays, whose budget went back to the pool when the lease was
// lost. Caller holds c.mu.
func (c *Coordinator) lateMergeableLocked(roots map[string]bool, replays int) bool {
	if replays > c.front.Room(c.report.Interleavings) {
		return false
	}
	found := 0
	for _, p := range c.front.Tasks {
		if _, ok := roots[p.key]; ok {
			found++
		}
	}
	for _, l := range c.leases {
		for _, key := range l.Keys {
			if _, ok := roots[key]; ok {
				found++
			}
		}
	}
	return found == len(roots)
}

// mergeLocked folds a vetted delta into the exploration. roots maps each
// root of the result to whether it was handed back. A late result's roots
// were requeued when its lease was lost: the ones it hands back are already
// waiting, and the ones it completed leave the frontier here (a copy under a
// newer lease is dropped when that lease returns). Caller holds c.mu.
func (c *Coordinator) mergeLocked(w *workerConn, delta *core.Report, left []pending, roots map[string]bool, held bool) {
	for k, back := range roots {
		if !back {
			c.done[k] = true
		}
	}
	if !held {
		waiting := func(p pending) bool { _, ok := roots[p.key]; return ok }
		c.front.Tasks = slices.DeleteFunc(c.front.Tasks, func(p pending) bool { return c.done[p.key] })
		left = slices.DeleteFunc(left, waiting)
	}
	c.front.Tasks = append(c.front.Tasks, left...)
	c.front.RootDone = c.done[rootKey]
	for _, e := range delta.Errors {
		e.Index += c.report.Interleavings
	}
	c.report.Merge(delta)
	w.completed += delta.Interleavings
	if c.cfg.Fingerprint.StopOnFirstError && len(delta.Errors) > 0 {
		c.stopped = true
	}
}

// failLocked records the first fatal error and stops issuing. Caller holds
// c.mu.
func (c *Coordinator) failLocked(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.stopped = true
}

// finishable reports whether the exploration is over and not yet finalized
// (dexplore.Frontier.Finishable is the test). Caller holds c.mu.
func (c *Coordinator) finishable() bool {
	return !c.finished && c.front.Finishable(c.report.Interleavings, c.stopped || c.runErr != nil)
}

// finalize ends the exploration exactly once: terminal report state (cap
// flag, deterministic error order), final checkpoint (written by a one-shot
// exploration, kept for Server.RunJob's caller otherwise), a jobdone frame to
// every attached worker, the close of a server that exists for this
// exploration alone, and then the Wait release — a caller that exits on Wait
// must not leave workers in a reconnect loop.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.report.Seal(&c.ecfg, len(c.front.Tasks) > 0)
	c.report.SortErrors()
	var ckp *dexplore.Checkpoint
	if c.cfg.CheckpointPath != "" && !c.noFinalCkp {
		ckp = c.checkpointLocked()
	}
	oneShot := c.srv == nil || c.srv.only != nil
	if !oneShot {
		c.left = ckp
	}
	conns := make([]*workerConn, 0, len(c.workers))
	for w := range c.workers {
		conns = append(conns, w)
	}
	c.mu.Unlock()

	// Either way no periodic write is out, or starts, once the writer is
	// closed: a slow one can neither replace the final cut with an older one
	// nor bring back a file its owner has removed.
	if ckp == nil || !oneShot {
		c.ckp.Close()
	} else if err := c.ckp.Final(ckp); err != nil {
		c.mu.Lock()
		if c.runErr == nil {
			c.runErr = fmt.Errorf("dcoord: writing final checkpoint: %w", err)
		}
		c.mu.Unlock()
	}
	for _, w := range conns {
		// The connection is the Server's, kept for its next job; the worker
		// just drops this job's replay contexts.
		_ = w.send(&frame{Type: msgJobDone, Job: c.cfg.JobID})
	}
	if s := c.srv; s != nil && s.only != nil {
		s.Close(false)
	}
	close(c.janitorStop)
	close(c.monitorStop)
	c.monitorWG.Wait()
	close(c.doneCh)
}

// checkpointLocked snapshots coordinator state in the dexplore.Checkpoint
// format: the frontier plus every leased root not already completed by a
// competing delivery. Caller holds c.mu.
func (c *Coordinator) checkpointLocked() *dexplore.Checkpoint {
	frontier := make([]*core.SubtreeTask, 0, len(c.front.Tasks))
	for _, p := range c.front.Tasks {
		frontier = append(frontier, p.task)
	}
	for _, l := range c.leases {
		for i, key := range l.Keys {
			if !c.done[key] {
				frontier = append(frontier, l.Tasks[i])
			}
		}
	}
	return dexplore.NewCheckpoint(c.cfg.Fingerprint.Workload, &c.ecfg, c.report, frontier)
}

// janitor periodically expires leases: past-TTL (no heartbeat) or past the
// hard age cap (hung replay under a live heartbeat). Expired leases requeue
// their roots under the redelivery cap.
func (c *Coordinator) janitor() {
	ticker := time.NewTicker(max(c.cfg.LeaseTTL/4, minTick))
	defer ticker.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		c.requeueLocked(func(l *lease) bool {
			return now.After(l.expires) || now.Sub(l.granted) > c.maxLeaseAge
		})
		if c.unlockAndAdvance() {
			return
		}
	}
}

// progress builds a dexplore.Progress snapshot (Busy = outstanding leases).
func (c *Coordinator) progress() dexplore.Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.rate.Snapshot(c.start, time.Now(), c.report.Interleavings)
	p.FrontierDepth, p.Busy = len(c.front.Tasks), len(c.leases)
	return p
}
