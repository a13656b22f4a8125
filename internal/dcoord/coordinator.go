package dcoord

import (
	"bufio"
	"fmt"
	"net"
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
// machine field it initializes, between New and the first worker.
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

// Coordinator owns one distributed exploration: it drives the machine that
// leases subtrees to the workers its Server attaches, merges their report
// deltas, and ends when the frontier and all leases drain; every step of the
// machine, and every read of it, holds mu. The Server owns the listener, the
// connections and the read loops; a one-shot coordinator (ListenAndServe)
// brings its own.
type Coordinator struct {
	machine
	mu sync.Mutex

	// srv runs this exploration; wire counts its frames (its own until then).
	srv  *Server
	wire *wireStats
	// ckp writes cfg.CheckpointPath (nothing without one); ckpBefore is what
	// the Server's earlier jobs wrote.
	ckp       *dexplore.CheckpointWriter
	ckpBefore int64
	// left is the final cut of an exploration run by Server.RunJob, which
	// hands it to its caller: only that knows whether anyone will read it.
	left  *dexplore.Checkpoint
	start time.Time
	rate  *dexplore.RateTracker
	// quit stops the janitor and the monitor; doneCh then releases Wait.
	quit, doneCh chan struct{}
	monitorWG    sync.WaitGroup
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
		machine: machine{
			cfg:             cfg,
			ecfg:            cfg.Fingerprint.ExplorerConfig(),
			maxRoots:        dexplore.MaxLeaseRoots,
			maxLeaseAge:     leaseAgeTTLs * cfg.LeaseTTL,
			maxRedeliveries: redeliveryCap,
			front:           dexplore.Frontier[pending]{Max: cfg.Fingerprint.MaxInterleavings},
			keys:            make(map[string]bool),
			redelivered:     make(map[string]int),
			report:          &core.Report{},
			cad:             dexplore.NewCadence(cfg.CheckpointEvery),
		},
		wire:   &wireStats{},
		ckp:    dexplore.NewCheckpointWriter(cfg.CheckpointPath, cfg.CheckpointEvery),
		rate:   dexplore.NewRateTracker(dexplore.RateWindow),
		quit:   make(chan struct{}),
		doneCh: make(chan struct{}),
		start:  time.Now(),
	}
	c.ecfg.MaxInterleavings = cfg.Fingerprint.MaxInterleavings
	frontier := []*core.SubtreeTask{core.RootTask(&c.ecfg)}
	if ckp := cfg.Resume; ckp != nil {
		rep, tasks, err := ckp.Restore(cfg.Fingerprint.Workload, &c.ecfg)
		if err != nil {
			return nil, err
		}
		c.report, frontier = rep, tasks
	}
	// A key a checkpoint lists twice is one subtree; without the root task (a
	// drain before it completed) its frontier means the root is done.
	for _, p := range keyed(frontier) {
		if _, dup := c.keys[p.key]; !dup {
			c.keys[p.key] = false
			c.front.Tasks = append(c.front.Tasks, p)
		}
	}
	if _, ok := c.keys[rootKey]; !ok {
		c.keys[rootKey], c.front.RootDone = true, true
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

// apply takes one step on the goroutine whose event it is, and does its
// actions once mu is released: a failed frame write is a disconnect.
func (c *Coordinator) apply(ev any) {
	c.mu.Lock()
	acts := c.step(ev, time.Now())
	c.mu.Unlock()
	for _, a := range acts {
		switch a := a.(type) {
		case actSend:
			if err := a.w.send(a.fr); err != nil {
				c.apply(evDisconnect{a.w})
				a.w.conn.Close()
			}
		case actPeriodic:
			c.ckp.Periodic(a.cut)
			c.apply(evSaved{})
		case actFinalize:
			c.finalize(a)
		}
	}
}

// run starts the janitor, whose ticks expire leases, and the progress
// monitor, and takes a first step: a resumed-but-already-complete checkpoint
// (or an immediate Stop) must not wait for a worker that will never be needed.
func (c *Coordinator) run() {
	go dexplore.Monitor(max(c.cfg.LeaseTTL/4, minTick), c.quit, func() { c.apply(evTick{}) })
	if c.cfg.OnProgress != nil {
		c.monitorWG.Add(1)
		go func() {
			defer c.monitorWG.Done()
			dexplore.Monitor(c.cfg.ProgressEvery, c.quit, func() { c.cfg.OnProgress(c.progress()) })
		}()
	}
	c.apply(evTick{})
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
// the first fatal error). Once Wait is released no step writes either, so it
// reads them without mu.
func (c *Coordinator) Wait() (*core.Report, error) {
	<-c.doneCh
	if c.runErr != nil {
		return nil, c.runErr
	}
	return c.report, nil
}

// Stop drains gracefully: no new leases are issued, in-flight replays finish
// and are merged, a final checkpoint preserves the remaining frontier, and
// Wait returns the partial report. Safe to call from any goroutine (the
// SIGTERM path).
func (c *Coordinator) Stop() { c.apply(evStop{}) }

// Abort ends the exploration with an error and crash semantics: no final
// checkpoint is written (periodic ones stand), and Wait returns err. The
// Server's kill path uses it so a simulated crash leaves exactly the state a
// real one would. Outstanding leases must drain first (a disconnect or the
// janitor requeues them); the end comes from whichever step empties them.
func (c *Coordinator) Abort(err error) { c.apply(evAbort{err}) }

// handleResult merges one returned lease, decoded before the lock is taken.
func (c *Coordinator) handleResult(w *workerConn, res *WireResult) {
	c.apply(c.decode(w, res))
}

// finalize carries out the end: the final cut written (one-shot) or kept for
// Server.RunJob's caller, jobdone to every attached worker, the close of a
// one-job server, and then the Wait release — a caller that exits on Wait
// must not leave workers in a reconnect loop.
func (c *Coordinator) finalize(f actFinalize) {
	oneShot := c.srv == nil || c.srv.only != nil
	if !oneShot {
		c.left = f.cut
	}
	// Either way no periodic write is out, or starts, once the writer is
	// closed: a slow one can neither replace the final cut with an older one
	// nor bring back a file its owner has removed.
	if f.cut == nil || !oneShot {
		c.ckp.Close()
	} else if err := c.ckp.Final(f.cut); err != nil {
		c.apply(evSaved{fmt.Errorf("dcoord: writing final checkpoint: %w", err)})
	}
	for _, w := range f.conns {
		// The connection is the Server's, kept for its next job; the worker
		// just drops this job's replay contexts.
		_ = w.send(&frame{Type: msgJobDone, Job: c.cfg.JobID})
	}
	if s := c.srv; s != nil && s.only != nil {
		s.Close(false)
	}
	close(c.quit)
	c.monitorWG.Wait()
	close(c.doneCh)
}

// progress builds a dexplore.Progress snapshot (Busy = outstanding leases).
func (c *Coordinator) progress() dexplore.Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.rate.Snapshot(c.start, time.Now(), c.report.Interleavings)
	p.FrontierDepth, p.Busy = len(c.front.Tasks), len(c.leases)
	return p
}
