package dcoord

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// Config configures a coordinator. The coordinator never replays anything
// itself — it owns the frontier, the leases and the merged report — so it
// needs no program, only the fingerprint workers must match.
type Config struct {
	// Fingerprint is the exploration identity every joining worker must
	// match exactly.
	Fingerprint Fingerprint
	// JobID tags every task frame with the job this exploration belongs to.
	// Empty for single-job explorations (verify.Serve); set by the job-queue
	// Server, whose workers route tasks and results by it.
	JobID string
	// MaxInterleavings caps the number of distinct subtrees explored
	// (0 = unlimited), like core.ExplorerConfig.MaxInterleavings.
	MaxInterleavings int
	// StopOnFirstError stops issuing new tasks once a failing interleaving
	// is reported; in-flight leases drain and are counted.
	StopOnFirstError bool
	// LeaseTTL is how long a lease survives without a heartbeat before its
	// task is requeued. Default 10s.
	LeaseTTL time.Duration
	// MaxLeaseAge is the hard per-lease deadline: even a heartbeating worker
	// forfeits a lease this old (a hung replay keeps the connection's
	// heartbeats flowing, so TTL alone cannot catch it). Default 30×LeaseTTL.
	MaxLeaseAge time.Duration
	// MaxRedeliveries caps how many times one task may be requeued after
	// lease loss before the exploration aborts (a poison task must not loop
	// forever). Default 3.
	MaxRedeliveries int
	// LeaseBatch is the extra leases granted to each worker beyond its slot
	// count: the prefetch depth that keeps a worker's next tasks in flight
	// while every slot is replaying, hiding one network round trip per task.
	// 0 means one extra lease per slot (double buffering); negative disables
	// prefetch (at most one lease per slot). Each batched task keeps its own
	// lease, so expiry, requeue and dedup are unchanged.
	LeaseBatch int
	// CheckpointPath, if non-empty, receives a frontier checkpoint (the
	// dexplore.Checkpoint format) every CheckpointEvery completions and at
	// the end, so a killed coordinator resumes with Resume.
	CheckpointPath string
	// CheckpointEvery is the completions between periodic checkpoint writes.
	// Default 32.
	CheckpointEvery int
	// Resume, if non-nil, seeds the exploration from a saved checkpoint
	// instead of leasing the initial self-discovery run. Validated against
	// Fingerprint.
	Resume *dexplore.Checkpoint
	// OnProgress, if non-nil, receives a throughput snapshot every
	// ProgressEvery (default 1s) while the exploration runs.
	OnProgress func(dexplore.Progress)
	// ProgressEvery is the progress-callback period.
	ProgressEvery time.Duration
}

// pending is one frontier entry: a task and its key, rendered once when the
// task enters the frontier and carried from there to the lease, the task
// frame and the result's echo.
type pending struct {
	key  string
	task *core.SubtreeTask
}

// lease is one outstanding task assignment.
type lease struct {
	id uint64
	pending
	conn    *workerConn
	granted time.Time
	expires time.Time
}

// wireStats counts the frames and bytes the connections of one listener
// moved, each direction. A managed coordinator shares its Server's: the
// connections outlive the job.
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

	wmu sync.Mutex // serializes frame writes (results race heartbeats)

	// guarded by Coordinator.mu
	active    int // leases currently held
	completed int // results merged from this session
	gone      bool
}

// send writes one frame under the connection's write lock with a deadline,
// so a stalled worker cannot wedge the coordinator.
func (w *workerConn) send(fr *frame) error {
	w.wmu.Lock()
	defer w.wmu.Unlock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(10 * time.Second))
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
	_ = conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	fr, err := w.recv(maxHelloSize)
	if err != nil || fr.Type != msgHello {
		conn.Close()
		return nil, nil
	}
	_ = conn.SetReadDeadline(time.Time{})
	w.name, w.slots = fr.Worker, fr.Slots
	if w.name == "" {
		w.name = conn.RemoteAddr().String()
	}
	if w.slots < 1 {
		w.slots = 1
	}
	return w, fr
}

// Coordinator owns a distributed exploration: it serves the wire protocol,
// leases subtree tasks to workers, merges their results, and terminates when
// the frontier and all leases drain.
type Coordinator struct {
	cfg Config
	// ecfg is the exploration the fingerprint describes, as the
	// ExplorerConfig fields RootTask, Report.Seal and the checkpoint codec
	// consult (no program: the coordinator never replays).
	ecfg core.ExplorerConfig

	// managed marks a coordinator embedded in a Server: the Server owns the
	// listener, the connections and the read loops, attaching workers for
	// the duration of one job. A managed coordinator announces job
	// completion with a jobdone frame and leaves every connection open.
	managed bool

	// wire counts this coordinator's frame traffic (the Server's, when
	// managed).
	wire *wireStats

	mu          sync.Mutex
	ln          net.Listener
	workers     map[*workerConn]struct{}
	frontier    []pending // LIFO stack
	leases      map[uint64]*lease
	nextLease   uint64
	done        map[string]bool // completed task keys (dedup after requeue)
	redelivered map[string]int  // requeue count per task key
	requeues    int             // total lease requeues
	report      *core.Report
	rootDone    bool
	stopped     bool // drain: no new leases (Stop or StopOnFirstError)
	noFinalCkp  bool // Abort: crash semantics, skip the final checkpoint
	finished    bool
	runErr      error
	sinceCkp    int
	start       time.Time
	rate        *dexplore.RateTracker
	doneCh      chan struct{}
	janitorStop chan struct{}
	monitorStop chan struct{}
	monitorWG   sync.WaitGroup
}

// New creates a coordinator. It validates Resume against the fingerprint and
// seeds either the checkpointed frontier or the root self-discovery task.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Fingerprint.Procs < 1 {
		return nil, fmt.Errorf("dcoord: Fingerprint.Procs must be >= 1")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.MaxLeaseAge <= 0 {
		cfg.MaxLeaseAge = 30 * cfg.LeaseTTL
	}
	if cfg.MaxRedeliveries <= 0 {
		cfg.MaxRedeliveries = 3
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 32
	}
	if cfg.ProgressEvery <= 0 {
		cfg.ProgressEvery = time.Second
	}
	c := &Coordinator{
		cfg:         cfg,
		ecfg:        cfg.Fingerprint.ExplorerConfig(),
		wire:        &wireStats{},
		workers:     make(map[*workerConn]struct{}),
		leases:      make(map[uint64]*lease),
		done:        make(map[string]bool),
		redelivered: make(map[string]int),
		report:      &core.Report{},
		rate:        dexplore.NewRateTracker(dexplore.RateWindow),
		doneCh:      make(chan struct{}),
		janitorStop: make(chan struct{}),
		monitorStop: make(chan struct{}),
		start:       time.Now(),
	}
	c.ecfg.MaxInterleavings = cfg.MaxInterleavings
	if ckp := cfg.Resume; ckp != nil {
		rep, frontier, err := ckp.Restore(cfg.Fingerprint.Workload, &c.ecfg)
		if err != nil {
			return nil, err
		}
		c.report, c.frontier = rep, keyed(frontier)
		// The checkpoint's frontier may still contain the root task (a drain
		// before the root completed).
		c.rootDone = true
		for _, t := range frontier {
			if t.Decisions == nil {
				c.rootDone = false
			}
		}
	} else {
		c.frontier = keyed([]*core.SubtreeTask{core.RootTask(&c.ecfg)})
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

// Serve starts accepting workers on ln and runs the lease janitor (and the
// progress monitor when configured). It returns immediately; use Wait for
// the result. The coordinator owns ln and closes it when the exploration
// ends.
func (c *Coordinator) Serve(ln net.Listener) {
	c.mu.Lock()
	c.ln = ln
	c.mu.Unlock()
	go c.acceptLoop(ln)
	go c.janitor()
	if c.cfg.OnProgress != nil {
		c.monitorWG.Add(1)
		go c.monitor()
	}
	// A resumed-but-already-complete checkpoint (or an immediate Stop) must
	// not wait for a worker that will never be needed.
	c.mu.Lock()
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// startManaged runs a Server-embedded coordinator: the janitor and monitor
// start, but no listener is owned — the Server attaches already-connected
// workers instead. Like Serve, an already-complete resume must finish
// without waiting for a worker.
func (c *Coordinator) startManaged() {
	c.managed = true
	go c.janitor()
	if c.cfg.OnProgress != nil {
		c.monitorWG.Add(1)
		go c.monitor()
	}
	c.mu.Lock()
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// attachWorker registers an already-handshaken connection for this job,
// resetting its per-job counters. It reports false when the exploration has
// already finished (the Server then leaves the worker idle).
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

// ListenAndServe listens on addr and Serves. It returns the bound listener
// (for its address) or an error.
func (c *Coordinator) ListenAndServe(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	c.Serve(ln)
	return ln, nil
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
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
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
	fin := c.finishable()
	c.mu.Unlock()
	if fin {
		c.finalize()
	}
}

// acceptLoop admits workers until the listener closes.
func (c *Coordinator) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go c.handleConn(conn)
	}
}

// handleConn performs the handshake and then runs the worker's read loop.
func (c *Coordinator) handleConn(conn net.Conn) {
	w, fr := acceptHello(conn, c.wire)
	if w == nil {
		return
	}
	if fr.Proto != protoVersion {
		_ = w.send(&frame{Type: msgReject, Reason: fmt.Sprintf("dcoord: protocol version %d, coordinator speaks %d", fr.Proto, protoVersion)})
		conn.Close()
		return
	}
	if fr.Fingerprint == nil {
		reason := "dcoord: hello without fingerprint"
		if fr.AnyWorkload {
			reason = "dcoord: this coordinator runs a single pinned exploration; any-workload workers need a job-queue server (dampi -serve -queue), or rejoin pinned with -workload and matching flags"
		}
		_ = w.send(&frame{Type: msgReject, Reason: reason})
		conn.Close()
		return
	}
	if err := c.cfg.Fingerprint.Check(*fr.Fingerprint); err != nil {
		_ = w.send(&frame{Type: msgReject, Reason: err.Error()})
		conn.Close()
		return
	}

	c.mu.Lock()
	finished := c.finished
	if !finished {
		c.workers[w] = struct{}{}
	}
	c.mu.Unlock()
	if finished {
		_ = w.send(&frame{Type: msgDone})
		conn.Close()
		return
	}
	if err := w.send(&frame{Type: msgWelcome, LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds()}); err != nil {
		c.dropWorker(w)
		return
	}
	c.dispatch()

	for {
		fr, err := w.recv(maxFrameSize)
		if err != nil {
			c.dropWorker(w)
			return
		}
		switch fr.Type {
		case msgHeartbeat:
			c.renewLeases(w)
		case msgResult:
			if fr.Result != nil {
				c.handleResult(w, fr.Result)
			}
		default:
			// Unknown frame from a matching-version worker: ignore.
		}
	}
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
	var failed error
	for id, l := range c.leases {
		if l.conn == w {
			delete(c.leases, id)
			if err := c.requeueLocked(l); err != nil && failed == nil {
				failed = err
			}
		}
	}
	if failed != nil {
		c.failLocked(failed)
	}
	fin := c.finishable()
	c.mu.Unlock()
	w.conn.Close()
	if fin {
		c.finalize()
		return
	}
	c.dispatch()
}

// requeueLocked returns a lost lease's task to the frontier, enforcing the
// redelivery cap. Caller holds c.mu and has already removed the lease.
func (c *Coordinator) requeueLocked(l *lease) error {
	l.conn.active--
	if c.done[l.key] {
		return nil // a competing delivery already completed it
	}
	c.requeues++
	c.redelivered[l.key]++
	if n := c.redelivered[l.key]; n > c.cfg.MaxRedeliveries {
		return fmt.Errorf("dcoord: task %s lost its lease %d times (redelivery cap %d): poison task or cluster too unstable",
			l.key, n, c.cfg.MaxRedeliveries)
	}
	// While draining the task is kept for the final checkpoint, not reissued.
	c.frontier = append(c.frontier, l.pending)
	return nil
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

// leaseCapacity is how many leases a worker may hold at once: its slots plus
// the configured prefetch depth.
func (c *Coordinator) leaseCapacity(w *workerConn) int {
	switch batch := c.cfg.LeaseBatch; {
	case batch > 0:
		return w.slots + batch
	case batch < 0:
		return w.slots
	default:
		return 2 * w.slots
	}
}

// dispatch hands frontier tasks to workers with free lease capacity, one
// batched frame per worker per round. Frame writes happen outside c.mu; a
// failed write drops the worker (which requeues every batched lease).
func (c *Coordinator) dispatch() {
	type send struct {
		w  *workerConn
		fr *frame
	}
	var sends []send
	now := time.Now()
	c.mu.Lock()
	if !c.stopped && c.runErr == nil && !c.finished {
		for w := range c.workers {
			var batch []wireTask
			for capacity := c.leaseCapacity(w); w.active < capacity; {
				if max := c.cfg.MaxInterleavings; max > 0 && c.report.Interleavings+len(c.leases) >= max {
					break
				}
				p, ok := c.popLiveLocked()
				if !ok {
					break
				}
				c.nextLease++
				l := &lease{
					id:      c.nextLease,
					pending: p,
					conn:    w,
					granted: now,
					expires: now.Add(c.cfg.LeaseTTL),
				}
				c.leases[l.id] = l
				w.active++
				batch = append(batch, wireTask{Lease: l.id, Key: p.key, Task: p.task, Root: p.task.Decisions == nil})
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

// popLiveLocked pops the deepest pending task whose subtree has not already
// been completed (a requeued copy may have been raced by a late delivery).
// Caller holds c.mu.
func (c *Coordinator) popLiveLocked() (pending, bool) {
	for n := len(c.frontier); n > 0; n = len(c.frontier) {
		p := c.frontier[n-1]
		c.frontier = c.frontier[:n-1]
		if !c.done[p.key] {
			return p, true
		}
	}
	return pending{}, false
}

// handleResult merges one completed replay: dedup by task key, fold the
// outcome and expansion into the report and frontier, trigger cancellation,
// checkpoints, and completion. While the lease is held the key is the
// lease's own and the echo only has to agree with it; the echo is all that
// identifies a late result whose lease already expired.
func (c *Coordinator) handleResult(w *workerConn, res *WireResult) {
	children := keyed(res.Children)
	c.mu.Lock()
	key, fatal := res.Key, res.Fatal
	if l, ok := c.leases[res.Lease]; ok && l.conn == w {
		delete(c.leases, res.Lease)
		w.active--
		if key != l.key && fatal == "" {
			fatal = fmt.Sprintf("dcoord: result for lease %d echoes key %q, the lease is for %q", l.id, key, l.key)
		}
		key = l.key
	}
	if fatal != "" {
		c.failLocked(fmt.Errorf("dcoord: worker %s: %s", w.name, fatal))
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
		}
		return
	}
	if c.finished || c.done[key] {
		// Late duplicate of a requeued-and-completed task: at-least-once
		// delivery, effectively-once merge.
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
			return
		}
		c.dispatch()
		return
	}
	c.done[key] = true
	w.completed++

	ir := &core.InterleavingResult{
		Index:      c.report.Interleavings,
		Decisions:  res.Decisions,
		Deadlock:   res.Deadlock,
		Mismatches: res.Mismatches,
		Epochs:     res.Epochs,
	}
	if res.ErrMsg != "" {
		ir.Err = errors.New(res.ErrMsg)
	}
	c.report.Add(ir, &core.Expansion{DecisionPoints: res.DecisionPoints, AutoAbstracted: res.AutoAbstracted}, nil, res.Sampled)
	c.frontier = append(c.frontier, children...)
	if res.Root != nil {
		c.report.WildcardsAnalyzed = res.Root.WildcardsAnalyzed
		c.report.Unsafe = res.Root.Unsafe
		c.report.FirstTrace = res.Root.FirstTrace
		c.rootDone = true
	}
	if c.cfg.StopOnFirstError && ir.Err != nil {
		c.stopped = true
	}
	c.sinceCkp++
	var ckp *dexplore.Checkpoint
	if c.cfg.CheckpointPath != "" && c.sinceCkp >= c.cfg.CheckpointEvery {
		c.sinceCkp = 0
		ckp = c.checkpointLocked()
	}
	fin := c.finishable()
	c.mu.Unlock()

	if ckp != nil {
		// Best-effort: a failed periodic write must not kill the search.
		_ = ckp.Save(c.cfg.CheckpointPath)
	}
	if fin {
		c.finalize()
		return
	}
	c.dispatch()
}

// failLocked records the first fatal error and stops issuing. Caller holds
// c.mu.
func (c *Coordinator) failLocked(err error) {
	if c.runErr == nil {
		c.runErr = err
	}
	c.stopped = true
}

// finishable reports whether the exploration is over: nothing leased, and
// either drained/errored or no live work remains (and the root ran, so an
// empty frontier means exhaustion rather than not-started). Caller holds
// c.mu.
func (c *Coordinator) finishable() bool {
	if c.finished || len(c.leases) > 0 {
		return false
	}
	if c.stopped || c.runErr != nil {
		return true
	}
	if !c.rootDone {
		return false
	}
	if max := c.cfg.MaxInterleavings; max > 0 && c.report.Interleavings >= max {
		return true
	}
	return c.liveFrontierLocked() == 0
}

// liveFrontierLocked counts pending tasks not already completed by a
// competing delivery. Caller holds c.mu; only called when no leases are
// outstanding, so the O(n) scan is off the hot path.
func (c *Coordinator) liveFrontierLocked() int {
	n := 0
	for _, p := range c.frontier {
		if !c.done[p.key] {
			n++
		}
	}
	return n
}

// finalize ends the exploration exactly once: terminal report state (cap
// flag, deterministic error order), final checkpoint, done-frames to every
// worker, listener close, and the Wait release.
func (c *Coordinator) finalize() {
	c.mu.Lock()
	if c.finished {
		c.mu.Unlock()
		return
	}
	c.finished = true
	c.report.Seal(&c.ecfg, c.liveFrontierLocked() > 0)
	c.report.SortErrors()
	var ckp *dexplore.Checkpoint
	if c.cfg.CheckpointPath != "" && !c.noFinalCkp {
		ckp = c.checkpointLocked()
	}
	conns := make([]*workerConn, 0, len(c.workers))
	for w := range c.workers {
		conns = append(conns, w)
	}
	ln := c.ln
	managed := c.managed
	c.mu.Unlock()

	if ckp != nil {
		if err := ckp.Save(c.cfg.CheckpointPath); err != nil {
			c.mu.Lock()
			if c.runErr == nil {
				c.runErr = fmt.Errorf("dcoord: writing final checkpoint: %w", err)
			}
			c.mu.Unlock()
		}
	}
	for _, w := range conns {
		if managed {
			// The Server keeps the connection for the next job; the worker
			// just drops this job's replay contexts.
			_ = w.send(&frame{Type: msgJobDone, Job: c.cfg.JobID})
			continue
		}
		_ = w.send(&frame{Type: msgDone})
		w.conn.Close()
	}
	if ln != nil {
		ln.Close()
	}
	close(c.janitorStop)
	close(c.monitorStop)
	c.monitorWG.Wait()
	close(c.doneCh)
}

// checkpointLocked snapshots coordinator state in the dexplore.Checkpoint
// format (pending first, then leased: resume pops the deepest work first).
// Caller holds c.mu.
func (c *Coordinator) checkpointLocked() *dexplore.Checkpoint {
	var frontier []*core.SubtreeTask
	for _, p := range c.frontier {
		if !c.done[p.key] {
			frontier = append(frontier, p.task)
		}
	}
	for _, l := range c.leases {
		frontier = append(frontier, l.task)
	}
	return dexplore.NewCheckpoint(c.cfg.Fingerprint.Workload, &c.ecfg, c.report, frontier)
}

// janitor periodically expires leases: past-TTL (no heartbeat) or past the
// hard age cap (hung replay under a live heartbeat). Expired tasks requeue
// under the redelivery cap.
func (c *Coordinator) janitor() {
	period := c.cfg.LeaseTTL / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-c.janitorStop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		var failed error
		c.mu.Lock()
		for id, l := range c.leases {
			if now.After(l.expires) || now.Sub(l.granted) > c.cfg.MaxLeaseAge {
				delete(c.leases, id)
				if err := c.requeueLocked(l); err != nil && failed == nil {
					failed = err
				}
			}
		}
		if failed != nil {
			c.failLocked(failed)
		}
		fin := c.finishable()
		c.mu.Unlock()
		if fin {
			c.finalize()
			return
		}
		c.dispatch()
	}
}

// monitor drives the OnProgress callback, sampling the sliding-window rate.
func (c *Coordinator) monitor() {
	defer c.monitorWG.Done()
	ticker := time.NewTicker(c.cfg.ProgressEvery)
	defer ticker.Stop()
	for {
		select {
		case <-c.monitorStop:
			return
		case <-ticker.C:
			c.cfg.OnProgress(c.progress())
		}
	}
}

// progress builds a dexplore.Progress snapshot (Busy = outstanding leases).
func (c *Coordinator) progress() dexplore.Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	elapsed := now.Sub(c.start)
	mean := 0.0
	if s := elapsed.Seconds(); s > 0 {
		mean = float64(c.report.Interleavings) / s
	}
	window, ok := c.rate.Rate(now, c.report.Interleavings)
	if !ok {
		window = mean
	}
	c.rate.Observe(now, c.report.Interleavings)
	return dexplore.Progress{
		Interleavings:   c.report.Interleavings,
		PerSecond:       mean,
		WindowPerSecond: window,
		WindowValid:     ok,
		FrontierDepth:   len(c.frontier),
		Busy:            len(c.leases),
		Elapsed:         elapsed,
	}
}
