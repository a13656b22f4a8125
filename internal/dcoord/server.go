package dcoord

import (
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// ServerConfig configures a persistent cluster server: the long-lived side
// of verification-as-a-service. Unlike a Coordinator (one exploration, then
// exit), a Server owns the worker pool across jobs: connections survive job
// boundaries and the next job's leases are dispatched to the workers that
// are already there.
type ServerConfig struct {
	// LeaseTTL, MaxLeaseAge, MaxRedeliveries, CheckpointEvery and
	// ProgressEvery carry the per-job engine knobs, with the same defaults as
	// Config.
	LeaseTTL        time.Duration
	MaxLeaseAge     time.Duration
	MaxRedeliveries int
	CheckpointEvery int
	ProgressEvery   time.Duration
	// OnEvent, if non-nil, receives human-readable lifecycle lines (worker
	// joined, worker lost, job started) for logging.
	OnEvent func(string)
}

// poolWorker is one pooled connection plus the capability half of its
// handshake: either pinned to one fingerprint (and optionally to the
// workload parameters baked into its program) or able to build any workload
// from a job spec.
type poolWorker struct {
	conn *workerConn
	any  bool
	fp   Fingerprint // pinned fingerprint; meaningful when !any
	// scale/iters are the workload parameters a pinned worker's program was
	// built with; 0 means unknown (library workers), which matches any job.
	scale, iters int
}

// eligible reports whether this worker can replay a job with the given spec.
func (p *poolWorker) eligible(spec *JobSpec) bool {
	if p.any {
		return true
	}
	if p.fp.Check(spec.Fingerprint()) != nil {
		return false
	}
	n := *spec
	n.Normalize()
	if p.scale != 0 && p.scale != n.Scale {
		return false
	}
	if p.iters != 0 && p.iters != n.Iters {
		return false
	}
	return true
}

// Server is a persistent coordinator: it accepts workers once and runs any
// number of explorations over them, one at a time. Each RunJob embeds a
// managed Coordinator for the lease/requeue/dedup machinery; the Server
// routes frames between the pooled connections and the active job.
type Server struct {
	cfg ServerConfig
	// wire counts the pool's frame traffic across jobs; each job's
	// coordinator reports it in its Status.
	wire wireStats

	mu      sync.Mutex
	ln      net.Listener
	pool    map[*workerConn]*poolWorker
	cur     *Coordinator
	curJob  string
	curSpec JobSpec
	closed  bool
}

// NewServer creates a persistent cluster server.
func NewServer(cfg ServerConfig) *Server {
	return &Server{cfg: cfg, pool: make(map[*workerConn]*poolWorker)}
}

// event emits one lifecycle line.
func (s *Server) event(format string, args ...any) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Serve starts accepting workers on ln. It returns immediately; the Server
// owns ln and closes it on Close.
func (s *Server) Serve(ln net.Listener) {
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
}

// ListenAndServe listens on addr and Serves.
func (s *Server) ListenAndServe(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln, nil
}

// leaseTTL returns the configured or default lease TTL (the welcome frame
// advertises it before any job exists).
func (s *Server) leaseTTL() time.Duration {
	if s.cfg.LeaseTTL > 0 {
		return s.cfg.LeaseTTL
	}
	return 10 * time.Second
}

// handleConn performs the handshake, registers the worker in the pool (and
// with the active job when eligible), then routes its frames until the
// connection dies or the server closes.
func (s *Server) handleConn(conn net.Conn) {
	w, fr := acceptHello(conn, &s.wire)
	if w == nil {
		return
	}
	if fr.Proto != protoVersion {
		_ = w.send(&frame{Type: msgReject, Reason: fmt.Sprintf("dcoord: protocol version %d, server speaks %d", fr.Proto, protoVersion)})
		conn.Close()
		return
	}
	if fr.Fingerprint == nil && !fr.AnyWorkload {
		_ = w.send(&frame{Type: msgReject, Reason: "dcoord: hello carries neither a fingerprint nor any-workload capability"})
		conn.Close()
		return
	}
	pw := &poolWorker{conn: w, any: fr.AnyWorkload, scale: fr.Scale, iters: fr.Iters}
	if fr.Fingerprint != nil {
		pw.fp = *fr.Fingerprint
		pw.any = false
	}

	var cur *Coordinator
	var job string
	var spec JobSpec
	admitted, err := w.welcome(s.leaseTTL(), func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.closed {
			s.pool[w] = pw
			cur, job, spec = s.cur, s.curJob, s.curSpec
		}
		return !s.closed
	})
	if !admitted {
		_ = w.send(&frame{Type: msgDone})
		conn.Close()
		return
	}
	if err != nil {
		s.removeWorker(w)
		return
	}
	s.event("worker %s joined (%d slots, any-workload=%v)", w.name, w.slots, pw.any)
	if cur != nil && pw.eligible(&spec) {
		if err := w.send(&frame{Type: msgJob, Job: job, Spec: &spec}); err != nil {
			s.removeWorker(w)
			return
		}
		if cur.attachWorker(w) {
			cur.dispatch()
		}
	}
	w.serve(func() (*Coordinator, string) {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.cur, s.curJob
	})
	s.removeWorker(w)
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
		cur.dropWorker(w) // requeues its leases; idempotent via w.gone
		return
	}
	w.conn.Close()
}

// JobConfig carries the per-job inputs RunJob needs beyond the spec.
type JobConfig struct {
	// ID tags every frame of this job.
	ID string
	// CheckpointPath, if non-empty, receives periodic frontier checkpoints,
	// so a crashed server resumes the job instead of restarting it.
	CheckpointPath string
	// Resume, if non-nil, seeds the job from a saved checkpoint.
	Resume *dexplore.Checkpoint
	// OnProgress, if non-nil, receives throughput snapshots.
	OnProgress func(dexplore.Progress)
}

// RunJob runs one exploration over the pooled workers and blocks until it
// completes, returning the merged report. Jobs run one at a time; calling
// RunJob concurrently is a caller bug and returns an error. Workers joining
// mid-job are attached on arrival; workers that die mid-job lose their
// leases to the usual requeue machinery.
func (s *Server) RunJob(spec JobSpec, jcfg JobConfig) (*core.Report, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	cfg := Config{
		Fingerprint:      spec.Fingerprint(),
		JobID:            jcfg.ID,
		MaxInterleavings: spec.MaxInterleavings,
		StopOnFirstError: spec.StopOnFirstError,
		LeaseTTL:         s.cfg.LeaseTTL,
		MaxLeaseAge:      s.cfg.MaxLeaseAge,
		MaxRedeliveries:  s.cfg.MaxRedeliveries,
		CheckpointPath:   jcfg.CheckpointPath,
		CheckpointEvery:  s.cfg.CheckpointEvery,
		Resume:           jcfg.Resume,
		OnProgress:       jcfg.OnProgress,
		ProgressEvery:    s.cfg.ProgressEvery,
	}
	c, err := New(cfg)
	if err != nil {
		return nil, err
	}
	c.wire = &s.wire

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("dcoord: server closed")
	}
	if s.cur != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("dcoord: job %s still running", s.curJob)
	}
	s.cur = c
	s.curJob = jcfg.ID
	s.curSpec = spec
	var attach []*workerConn
	for w, pw := range s.pool {
		if pw.eligible(&spec) {
			attach = append(attach, w)
		}
	}
	s.mu.Unlock()

	s.event("job %s started: %s procs=%d (%d eligible workers)", jcfg.ID, spec.Workload, spec.Procs, len(attach))
	c.startManaged()
	for _, w := range attach {
		// The job announcement must precede any task frame on this
		// connection; both go through w.send, so the order holds.
		if err := w.send(&frame{Type: msgJob, Job: jcfg.ID, Spec: &spec}); err != nil {
			s.removeWorker(w)
			continue
		}
		c.attachWorker(w)
	}
	c.dispatch()
	rep, err := c.Wait()

	s.mu.Lock()
	if s.cur == c {
		s.cur = nil
		s.curJob = ""
	}
	s.mu.Unlock()
	return rep, err
}

// CancelJob drains the named active job: no new leases, in-flight replays
// merge, and RunJob returns the partial report. It reports whether the job
// was the active one.
func (s *Server) CancelJob(id string) bool {
	s.mu.Lock()
	cur, job := s.cur, s.curJob
	s.mu.Unlock()
	if cur == nil || job != id {
		return false
	}
	cur.Stop()
	return true
}

// Close shuts the server down. Graceful (kill=false): the active job drains
// via its own Stop path first if the caller wants that — Close itself just
// stops accepting, tells idle workers the service is over, and closes every
// connection. Abrupt (kill=true): connections and listener are torn down
// immediately with no goodbye frames, simulating a crash; tests use it to
// exercise WAL recovery.
func (s *Server) Close(kill bool) {
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
		if !kill {
			_ = w.send(&frame{Type: msgDone})
		}
		w.conn.Close()
	}
	if cur != nil {
		if kill {
			cur.Abort(fmt.Errorf("dcoord: server killed"))
		} else {
			cur.Stop()
		}
	}
}

// CurrentStatus returns the active job's exploration snapshot, if a job is
// running.
func (s *Server) CurrentStatus() (Status, string, bool) {
	s.mu.Lock()
	cur, job := s.cur, s.curJob
	s.mu.Unlock()
	if cur == nil {
		return Status{}, "", false
	}
	return cur.Status(), job, true
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
	for w, pw := range s.pool {
		ws := PoolWorkerStatus{
			Name:         w.name,
			Addr:         w.conn.RemoteAddr().String(),
			Slots:        w.slots,
			AnyWorkload:  pw.any,
			ConnectedSec: now.Sub(w.since).Seconds(),
		}
		if !pw.any {
			ws.Workload = pw.fp.Workload
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
