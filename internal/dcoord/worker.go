package dcoord

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// WorkerConfig configures a worker process.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// Name identifies the worker in coordinator status output. Defaults to
	// host:pid.
	Name string
	// Slots is the number of concurrent replay slots (each with its own
	// core.RunContext and mpi.World). Default 1.
	Slots int
	// Fingerprint, when non-zero, pins the worker to one exploration: it is
	// the spec sent in the handshake, and the worker only ever replays jobs
	// whose spec Check accepts against it. Its Scale and Iters are the
	// workload parameters the worker's program was built with; 0 means
	// unknown (library callers), which matches any job. A zero Fingerprint
	// (requires Factory) makes this an any-workload worker: it advertises the
	// capability instead and builds its program per job from the announced
	// spec.
	Fingerprint JobSpec
	// Explorer carries the replay parameters and the program for pinned
	// workers. Its exploration fields must agree with Fingerprint (the
	// caller builds it with FingerprintFor from this very config).
	Explorer core.ExplorerConfig
	// Factory, if non-nil, builds the replay configuration (including the
	// program) for an announced job spec. Required for any-workload workers;
	// optional for pinned ones (NewWorker makes one of Explorer, which checks
	// the announced spec against Fingerprint).
	Factory func(spec JobSpec) (core.ExplorerConfig, error)
	// OnEvent, if non-nil, receives human-readable lifecycle lines
	// (connected, reconnecting, rejected) for logging.
	OnEvent func(string)
}

// Worker is one replay node of a distributed exploration: it joins the
// coordinator, explores leased subtrees, and sends back report deltas until
// the coordinator reports the exploration done.
type Worker struct {
	cfg WorkerConfig
	// slice is dexplore.LeaseSlice; tests shrink it before Run.
	slice time.Duration

	stopCh   chan struct{} // closed by Stop: the worker is halted
	stopOnce sync.Once
}

// NewWorker creates a worker. Like the engines it panics on a config that
// can never replay anything — a pinned worker without a program, or an
// unpinned worker without a factory — so misuse fails loudly at startup
// rather than at first lease. A pinned worker without a factory gets one: it
// replays its Explorer for every announced spec that Check accepts against its
// Fingerprint — a mismatch is a server bug, and fails the job loudly rather
// than corrupt its report.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Factory != nil && (cfg.Fingerprint == JobSpec{}) && (cfg.Explorer.Program != nil || cfg.Explorer.Runner != nil) {
		panic("dcoord: any-workload worker with a pinned program; set Fingerprint or drop Explorer")
	}
	if cfg.Factory == nil {
		if cfg.Explorer.Procs < 1 {
			panic("dcoord: WorkerConfig.Explorer.Procs must be >= 1")
		}
		if cfg.Explorer.Program == nil && cfg.Explorer.Runner == nil {
			panic("dcoord: WorkerConfig.Explorer.Program must be set")
		}
		pinned, ecfg := cfg.Fingerprint, cfg.Explorer
		cfg.Factory = func(spec JobSpec) (core.ExplorerConfig, error) {
			if err := spec.Check(&pinned); err != nil {
				return core.ExplorerConfig{}, fmt.Errorf("job spec does not match pinned worker: %w", err)
			}
			return ecfg, nil
		}
	}
	if cfg.Slots < 1 {
		cfg.Slots = 1
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		cfg.Name = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	return &Worker{cfg: cfg, slice: dexplore.LeaseSlice, stopCh: make(chan struct{})}
}

// Stop drains gracefully: each slot finishes the replay it is in and delivers
// its lease — what it explored and the subtrees it did not reach — then the
// worker disconnects and Run returns nil. The SIGTERM path.
func (w *Worker) Stop() { w.stopOnce.Do(func() { close(w.stopCh) }) }

// event emits one lifecycle line.
func (w *Worker) event(format string, args ...any) {
	if w.cfg.OnEvent != nil {
		w.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Run joins the coordinator and processes leases until the exploration ends
// (returns nil), the handshake is rejected (returns the rejection: the
// mismatch is permanent, retrying cannot help), or the coordinator stays
// unreachable past the dial budget (maxDials, in coordinator.go's run policy).
func (w *Worker) Run() error {
	backoff := backoffInitial
	fails := 0
	for {
		if w.halted() {
			return nil
		}
		conn, err := net.DialTimeout("tcp", w.cfg.Addr, dialTimeout)
		if err != nil {
			fails++
			if fails >= maxDials {
				return fmt.Errorf("dcoord: coordinator %s unreachable after %d attempts: %w", w.cfg.Addr, fails, err)
			}
			w.event("dial %s failed (attempt %d): %v; retrying in %v", w.cfg.Addr, fails, err, backoff)
			if !w.sleep(backoff) {
				return nil
			}
			backoff = min(2*backoff, backoffMax)
			continue
		}
		fails = 0
		backoff = backoffInitial
		done, err := w.session(conn)
		if done {
			return nil
		}
		if err != nil {
			var rej *rejectError
			if errors.As(err, &rej) {
				return rej
			}
			w.event("session ended: %v; reconnecting", err)
		}
		if !w.sleep(backoffInitial) {
			return nil
		}
	}
}

// rejectError is a permanent handshake refusal.
type rejectError struct{ reason string }

func (e *rejectError) Error() string { return e.reason }

// sleep waits d or until Stop; it reports whether the worker should keep
// going.
func (w *Worker) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-w.stopCh:
		return false
	case <-t.C:
		return true
	}
}

// halted reports whether Stop ended the worker's life.
func (w *Worker) halted() bool {
	select {
	case <-w.stopCh:
		return true
	default:
		return false
	}
}

// jobRuntime is one announced job on this worker: the replay configuration
// the factory built for it, which each slot's RunContext for the job runs.
type jobRuntime struct {
	id  string
	cfg core.ExplorerConfig
	err string // non-empty: the spec could not be built; its tasks answer Fatal
}

// runtimeFor resolves a job announcement into a runtime through the factory.
// The job-level bounds are the coordinator's: whatever the configuration says
// of them is dropped (a worker honouring StopOnFirstError would change what a
// draining lease counts).
func (w *Worker) runtimeFor(job string, spec *JobSpec) *jobRuntime {
	rt := &jobRuntime{id: job}
	if spec == nil {
		rt.err = "dcoord: job announcement without a spec"
		return rt
	}
	var err error
	if rt.cfg, err = w.cfg.Factory(*spec); err != nil {
		rt.err = fmt.Sprintf("dcoord: worker cannot build job spec: %v", err)
	}
	rt.cfg.MaxInterleavings, rt.cfg.StopOnFirstError = 0, false
	return rt
}

// slotTask is one lease routed to a replay slot, with the runtime of the job
// it belongs to.
type slotTask struct {
	rt *jobRuntime
	wt wireTask
}

// session runs one connection's lifetime: handshake, then slots replaying
// tasks while heartbeats renew the leases. It returns done=true when the
// coordinator declared the exploration over.
func (w *Worker) session(conn net.Conn) (bool, error) {
	defer conn.Close()
	var smu sync.Mutex // serializes result and heartbeat writes
	send := func(fr *frame) error {
		smu.Lock()
		defer smu.Unlock()
		_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		_, err := writeFrame(conn, fr)
		return err
	}
	// Every read of the session goes through one buffer, the handshake's
	// included, so a task frame costs one syscall and no byte is stranded.
	r := bufio.NewReader(conn)
	hello := &frame{Type: msgHello, Proto: protoVersion, Worker: w.cfg.Name, Slots: w.cfg.Slots}
	if w.cfg.Fingerprint != (JobSpec{}) {
		hello.Spec = &w.cfg.Fingerprint
	} else {
		hello.AnyWorkload = true
	}
	if err := send(hello); err != nil {
		return false, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	fr, _, err := readFrame(r, maxFrameSize)
	if err != nil {
		return false, err
	}
	_ = conn.SetReadDeadline(time.Time{})
	switch fr.Type {
	case msgWelcome:
	case msgDone:
		w.event("exploration already complete")
		return true, nil
	case msgReject:
		w.event("rejected by coordinator: %s", fr.Reason)
		return false, &rejectError{reason: fr.Reason}
	default:
		return false, fmt.Errorf("dcoord: unexpected %s frame in handshake", fr.Type)
	}
	ttl := time.Duration(fr.LeaseTTLMillis) * time.Millisecond
	if ttl <= 0 {
		ttl = defaultLeaseTTL
	}
	w.event("joined %s (ttl %v, %d slots)", w.cfg.Addr, ttl, w.cfg.Slots)

	// Heartbeater: renews every lease this session holds. Stops with the
	// session (conn close makes its send fail, which it ignores).
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		ticker := time.NewTicker(max(ttl/3, minTick))
		defer ticker.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-ticker.C:
				_ = send(&frame{Type: msgHeartbeat, Worker: w.cfg.Name})
			}
		}
	}()

	// Slots: each keeps one RunContext per job, so tool state recycles
	// across that job's leases (as a dexplore slot keeps one) and is dropped
	// when the next job's first lease arrives. The coordinator grants one
	// lease per free slot, so the buffer takes a whole task frame without
	// blocking the reader.
	tasks := make(chan slotTask, w.cfg.Slots)
	var slotWG sync.WaitGroup
	for i := 0; i < w.cfg.Slots; i++ {
		slotWG.Add(1)
		go func() {
			defer slotWG.Done()
			var rt *jobRuntime
			var rc *core.RunContext
			for st := range tasks {
				if st.rt != rt {
					rt, rc = st.rt, core.NewRunContext(&st.rt.cfg)
				}
				if err := send(&frame{Type: msgResult, Job: rt.id, Result: w.runLease(rt, rc, st.wt)}); err != nil {
					return // session is over; the lease will expire and requeue
				}
			}
		}()
	}

	// Reader: the session ends when the coordinator says done, the
	// connection breaks, or Stop fires. Stop only unblocks the pending read —
	// the connection stays writable so draining slots still deliver.
	done := false
	var readErr error
	sessDone := make(chan struct{})
	defer close(sessDone)
	go func() {
		select {
		case <-w.stopCh:
			_ = conn.SetReadDeadline(time.Now())
		case <-sessDone:
		}
	}()
	// The runtime of the announced job: every task resolves through it.
	var cur *jobRuntime
read:
	for {
		fr, _, err := readFrame(r, maxFrameSize)
		if err != nil {
			readErr = err
			break
		}
		switch fr.Type {
		case msgDone:
			done = true
			break read
		case msgJob:
			// A new job supersedes the previous one: the server runs jobs
			// sequentially, so the old runtime is dropped. In-flight slots
			// keep their own references.
			cur = w.runtimeFor(fr.Job, fr.Spec)
			if cur.err != "" {
				w.event("job %s unrunnable: %s", fr.Job, cur.err)
			} else {
				w.event("job %s: %s procs=%d", fr.Job, fr.Spec.Workload, fr.Spec.Procs)
			}
		case msgJobDone:
			if cur != nil && cur.id == fr.Job {
				cur = nil
			}
			w.event("job %s done", fr.Job)
		case msgTask:
			rt := cur
			if rt != nil && rt.id != fr.Job {
				rt = nil
			}
			for _, wt := range fr.Tasks {
				if len(wt.Tasks) == 0 {
					continue
				}
				if rt == nil || rt.err != "" {
					// A task the worker cannot run: answer Fatal so the job
					// fails loudly instead of burning the redelivery cap.
					reason := "dcoord: task for unannounced job"
					if rt != nil {
						reason = rt.err
					}
					_ = send(&frame{Type: msgResult, Job: fr.Job, Result: &WireResult{
						Lease: wt.Lease, Keys: wt.Keys, Fatal: reason,
					}})
					continue
				}
				select {
				case tasks <- slotTask{rt: rt, wt: wt}:
				case <-w.stopCh:
				}
				if w.halted() {
					break
				}
			}
			if w.halted() {
				break read
			}
		}
	}
	close(tasks)
	slotWG.Wait() // graceful: in-flight leases are cut short and delivered
	close(hbStop)
	hbWG.Wait()
	if done || w.halted() {
		return true, nil
	}
	return false, readErr
}

// runLease explores one lease on the loop core.Explorer runs — its roots
// depth-first until they are exhausted, the budget is spent, the time slice
// has passed or the worker is halted — and returns what that added to the
// exploration and what is left of it.
func (w *Worker) runLease(rt *jobRuntime, rc *core.RunContext, wt wireTask) *WireResult {
	out := &WireResult{Lease: wt.Lease, Keys: wt.Keys}
	start := time.Now()
	rep, left, _, err := rc.Explore(wt.Tasks, wt.Budget, false, func() bool {
		return time.Since(start) >= w.slice || w.halted()
	})
	if err != nil {
		out.Fatal = err.Error()
		return out
	}
	out.Delta = dexplore.NewCheckpoint("", &rt.cfg, rep, left)
	return out
}
