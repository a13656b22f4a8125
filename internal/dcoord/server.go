package dcoord

import (
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// ServerConfig configures a cluster server: the side of the wire that owns
// the listener and the worker pool. A Coordinator is one exploration; the
// Server runs any number of them over its pool, one at a time: connections
// survive job boundaries and the next job's leases are dispatched to the
// workers that are already there. A one-shot exploration
// (Coordinator.ListenAndServe) is a Server with one job.
type ServerConfig struct {
	// LeaseTTL is the pool's lease TTL (default defaultLeaseTTL): the welcome
	// frame advertises it before any job exists, so every job runs under it.
	LeaseTTL time.Duration
	// CheckpointEvery is the checkpoint cadence of a job whose Config sets
	// none (0 = Config's default, by the clock).
	CheckpointEvery int
	// OnEvent, if non-nil, receives human-readable lifecycle lines (worker
	// joined, worker lost, job started) for logging.
	OnEvent func(string)
}

// eligible reports whether the worker can replay the job spec describes: an
// any-workload worker builds whatever is announced, a pinned one only what
// Check accepts.
func (w *workerConn) eligible(spec *JobSpec) bool {
	return w.pinned == nil || spec.Check(w.pinned) == nil
}

// Server accepts workers once and runs any number of explorations over them,
// one at a time. Each is a Coordinator, which has the lease/requeue/dedup
// machinery; the Server routes frames between the pooled connections and the
// current one.
type Server struct {
	cfg ServerConfig
	// wire counts the pool's frame traffic across jobs; each job's
	// coordinator reports it in its Status.
	wire wireStats
	// only, when non-nil, is the one exploration this server exists for
	// (Coordinator.ListenAndServe sets it before the listener opens). Such a
	// server differs from a job queue's in two ways: a pinned hello that
	// only.Check refuses is rejected at the handshake (it could wait for no
	// later job, only idle), and the server closes when that exploration
	// finalizes.
	only *JobSpec

	mu          sync.Mutex
	ln          net.Listener
	pool        map[*workerConn]struct{}
	cur         *Coordinator // the running exploration; nil between jobs
	checkpoints int64        // checkpoint files the finished jobs wrote
	closed      bool
}

// NewServer creates a cluster server.
func NewServer(cfg ServerConfig) *Server {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = defaultLeaseTTL
	}
	return &Server{cfg: cfg, pool: make(map[*workerConn]struct{})}
}

// event emits one lifecycle line.
func (s *Server) event(format string, args ...any) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// ListenAndServe listens on addr and starts accepting workers. It returns
// immediately; the Server owns the listener and closes it on Close.
func (s *Server) ListenAndServe(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go s.handleConn(conn)
		}
	}()
	return ln, nil
}

// handleConn performs the handshake, registers the worker in the pool (and
// with the current job when eligible), then routes its frames until the
// connection dies or the server closes.
func (s *Server) handleConn(conn net.Conn) {
	w, fr := acceptHello(conn, &s.wire)
	if w == nil {
		return
	}
	var refuse error
	switch {
	case fr.Proto != protoVersion:
		refuse = fmt.Errorf("dcoord: protocol version %d, coordinator speaks %d", fr.Proto, protoVersion)
	case w.pinned == nil && !fr.AnyWorkload:
		refuse = errors.New("dcoord: hello carries neither a spec nor any-workload capability")
	case w.pinned != nil && s.only != nil:
		refuse = s.only.Check(w.pinned)
	}
	if refuse != nil {
		_ = w.send(&frame{Type: msgReject, Reason: refuse.Error()})
		conn.Close()
		return
	}

	// Registration and the welcome frame are one step under the write lock: a
	// grant (or job announcement) another connection triggers may see the
	// registration at once, but its frame waits behind the welcome — the
	// worker fails a handshake that a task frame overtakes.
	w.wmu.Lock()
	s.mu.Lock()
	admitted, cur := !s.closed, s.cur
	if admitted {
		s.pool[w] = struct{}{}
	}
	s.mu.Unlock()
	answer := &frame{Type: msgDone} // a closed server: nothing is left to join
	if admitted {
		answer = &frame{Type: msgWelcome, LeaseTTLMillis: s.cfg.LeaseTTL.Milliseconds()}
	}
	err := w.write(answer)
	w.wmu.Unlock()
	if !admitted {
		conn.Close()
		return
	}
	if err == nil {
		s.event("worker %s joined (%d slots, any-workload=%v)", w.name, w.slots, w.pinned == nil)
		if cur != nil {
			s.attach(cur, w)
		}
		s.serve(w)
	}
	s.removeWorker(w)
}

// attach announces exploration c to w and registers w with it (which grants
// w its leases), if w can replay it; it reports whether w was told. The
// announcement precedes any task frame on the connection: both go through
// w.send, and no lease is granted to a worker before it is registered.
func (s *Server) attach(c *Coordinator, w *workerConn) bool {
	spec := &c.cfg.Fingerprint
	if !w.eligible(spec) {
		return false
	}
	if err := w.send(&frame{Type: msgJob, Job: c.cfg.JobID, Spec: spec}); err != nil {
		s.removeWorker(w)
		return false
	}
	c.apply(evAttach{w})
	return true
}

// serve is the read loop of a welcomed connection: heartbeats renew, and
// results merge into, the current exploration (none between jobs; a result
// tagged with another job is dropped, and one for a finished exploration by
// its step; other frames are ignored). It returns when the connection dies.
func (s *Server) serve(w *workerConn) {
	for {
		fr, err := w.recv(maxFrameSize)
		if err != nil {
			return
		}
		s.mu.Lock()
		c := s.cur
		s.mu.Unlock()
		if c == nil {
			continue
		}
		switch fr.Type {
		case msgHeartbeat:
			c.apply(evHeartbeat{w})
		case msgResult:
			if fr.Result != nil && fr.Job == c.cfg.JobID {
				c.handleResult(w, fr.Result)
			}
		}
	}
}

// removeWorker drops a dead connection from the pool and requeues any leases
// the active job granted it.
func (s *Server) removeWorker(w *workerConn) {
	s.mu.Lock()
	_, known := s.pool[w]
	delete(s.pool, w)
	cur := s.cur
	s.mu.Unlock()
	if known {
		s.event("worker %s lost", w.name)
	}
	if cur != nil {
		cur.apply(evDisconnect{w}) // requeues its leases; idempotent via w.gone
	}
	w.conn.Close()
}

// RunJob runs the exploration cfg describes over the pooled workers and
// blocks until it completes, returning the merged report. cfg is the Config a
// one-shot New takes; the server fills the two fields that are the pool's, not
// the job's: LeaseTTL, always — workers heartbeat at a third of what the
// welcome frame told them, whatever cfg says — and CheckpointEvery when cfg
// sets none. Jobs run one at a time; calling RunJob concurrently is a caller
// bug and returns an error. Workers joining mid-job are attached on arrival;
// workers that die mid-job lose their leases to the usual requeue machinery.
//
// With a CheckpointPath the job writes its periodic checkpoints there, but
// not its last: the final cut — the report and whatever frontier a drain or
// the cap left — comes back beside the report, for the caller to save if
// anyone will resume from it. A completed job's never is,
// and when RunJob returns nothing is writing the path any more.
func (s *Server) RunJob(cfg Config) (*core.Report, *dexplore.Checkpoint, error) {
	cfg.LeaseTTL = s.cfg.LeaseTTL
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = s.cfg.CheckpointEvery
	}
	c, err := New(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := s.start(c); err != nil {
		return nil, nil, err
	}
	rep, err := c.Wait()
	// Cleared before RunJob returns: the caller's next RunJob must not find
	// this job still running.
	s.mu.Lock()
	s.cur = nil
	s.checkpoints = c.ckpBefore + c.ckp.Written()
	s.mu.Unlock()
	return rep, c.left, err
}

// CheckpointsWritten is the number of checkpoint files this server's jobs
// have written, the running one's included.
func (s *Server) CheckpointsWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil {
		return s.cur.ckpBefore + s.cur.ckp.Written()
	}
	return s.checkpoints
}

// start makes c the server's current exploration and hands it the pooled
// workers that can replay it. A worker joining concurrently is attached by
// exactly one side: it either registered before the snapshot below, or saw c
// as the current exploration when it did.
func (s *Server) start(c *Coordinator) error {
	s.mu.Lock()
	switch {
	case s.closed:
		s.mu.Unlock()
		return errors.New("dcoord: server closed")
	case s.cur != nil:
		s.mu.Unlock()
		return fmt.Errorf("dcoord: job %s still running", s.cur.cfg.JobID)
	}
	c.srv, c.wire, c.ckpBefore = s, &s.wire, s.checkpoints
	s.cur = c
	pool := make([]*workerConn, 0, len(s.pool))
	for w := range s.pool {
		pool = append(pool, w)
	}
	s.mu.Unlock()

	c.run()
	eligible := 0
	for _, w := range pool {
		if s.attach(c, w) {
			eligible++
		}
	}
	spec := &c.cfg.Fingerprint
	s.event("job %s started: %s procs=%d (%d eligible workers)", c.cfg.JobID, spec.Workload, spec.Procs, eligible)
	return nil
}

// CancelJob drains the named active job: no new leases, in-flight replays
// merge, and RunJob returns the partial report. It reports whether the job
// was the active one.
func (s *Server) CancelJob(id string) bool {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil || cur.cfg.JobID != id {
		return false
	}
	cur.Stop()
	return true
}

// Close shuts the server down: it stops accepting, tells every pooled worker
// the service is over, closes every connection, and drains the active job,
// whose RunJob then returns what it merged.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ln := s.ln
	cur := s.cur
	conns := make([]*workerConn, 0, len(s.pool))
	for w := range s.pool {
		conns = append(conns, w)
	}
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, w := range conns {
		_ = w.send(&frame{Type: msgDone})
		w.conn.Close()
	}
	if cur != nil {
		cur.Stop()
	}
}

// CurrentStatus returns the active job's exploration snapshot, if a job is
// running.
func (s *Server) CurrentStatus() (Status, string, bool) {
	s.mu.Lock()
	cur := s.cur
	s.mu.Unlock()
	if cur == nil {
		return Status{}, "", false
	}
	return cur.Status(), cur.cfg.JobID, true
}

// PoolWorkerStatus is one pooled connection's view for service status: the
// connection-level facts that exist even when no job is running.
type PoolWorkerStatus struct {
	Name         string  `json:"name"`
	Addr         string  `json:"addr"`
	Slots        int     `json:"slots"`
	AnyWorkload  bool    `json:"any_workload"`
	Workload     string  `json:"workload,omitempty"` // pinned workload, if any
	ConnectedSec float64 `json:"connected_sec"`
}

// Workers snapshots the pooled connections, sorted by name.
func (s *Server) Workers() []PoolWorkerStatus {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]PoolWorkerStatus, 0, len(s.pool))
	for w := range s.pool {
		ws := PoolWorkerStatus{
			Name:         w.name,
			Addr:         w.conn.RemoteAddr().String(),
			Slots:        w.slots,
			AnyWorkload:  w.pinned == nil,
			ConnectedSec: now.Sub(w.since).Seconds(),
		}
		if w.pinned != nil {
			ws.Workload = w.pinned.Workload
		}
		out = append(out, ws)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TotalSlots sums the replay slots across pooled workers — the cluster's
// concurrent replay capacity, one input to the autoscaling hints.
func (s *Server) TotalSlots() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for w := range s.pool {
		n += w.slots
	}
	return n
}
