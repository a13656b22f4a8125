package jobqueue

import (
	"fmt"
	"os"
	"sync"
	"time"

	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// ServiceConfig configures the verification service: the job store plus the
// persistent cluster server the jobs run on.
type ServiceConfig struct {
	// Store is the durable job table. Required.
	Store *Store
	// Server is the persistent dcoord cluster. Required.
	Server *dcoord.Server
	// Validate, if non-nil, vets a submitted spec before it is queued —
	// the CLI installs the workload-registry check here so unknown workload
	// names are refused at submission instead of failing the job at
	// dispatch.
	Validate func(spec dcoord.JobSpec) error
	// OnEvent, if non-nil, receives human-readable lifecycle lines.
	OnEvent func(string)
}

// Service drains the job store onto the cluster: one goroutine takes the
// oldest queued job, runs it via Server.RunJob (the pooled workers get the
// new job's leases without reconnecting), persists the merged report, and
// moves on to the next. Everything it does is recorded in the store first,
// so a crashed service resumes exactly where it stopped.
type Service struct {
	cfg ServiceConfig
	// sweepEvery is sweepPeriod; tests shorten it before Run.
	sweepEvery time.Duration

	wake  chan struct{}
	stop  chan struct{}
	done  chan struct{}
	once  sync.Once
	start time.Time

	mu        sync.Mutex
	killed    bool
	stopping  bool
	durations []float64 // recent job wall-times (seconds), for the ETA hint
}

// NewService creates the service; Run starts it.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Store == nil || cfg.Server == nil {
		return nil, fmt.Errorf("jobqueue: service requires a store and a server")
	}
	return &Service{
		cfg:        cfg,
		sweepEvery: sweepPeriod,
		wake:       make(chan struct{}, 1),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		start:      time.Now(),
	}, nil
}

// event emits one lifecycle line.
func (s *Service) event(format string, args ...any) {
	if s.cfg.OnEvent != nil {
		s.cfg.OnEvent(fmt.Sprintf(format, args...))
	}
}

// Submit validates and queues a job (or returns the active duplicate).
func (s *Service) Submit(spec dcoord.JobSpec, ttl time.Duration) (*Job, bool, error) {
	if err := validateSpec(&spec); err != nil {
		return nil, false, err
	}
	if s.cfg.Validate != nil {
		if err := s.cfg.Validate(spec); err != nil {
			return nil, false, err
		}
	}
	j, dup, err := s.cfg.Store.Submit(spec, ttl)
	if err != nil {
		return nil, false, err
	}
	if !dup {
		s.event("job %s queued: %s procs=%d", j.ID, spec.Workload, spec.Procs)
		s.poke()
	}
	return j, dup, nil
}

// Cancel requests cancellation: queued jobs fail immediately, the active
// job's exploration is drained (RunJob returns, the job records the
// cancellation). Terminal jobs are left alone (ok=false).
func (s *Service) Cancel(id string) (ok bool, err error) {
	j, found := s.cfg.Store.Get(id)
	if !found {
		return false, fmt.Errorf("jobqueue: no job %s", id)
	}
	if j.State.Terminal() {
		return false, nil
	}
	if _, err := s.cfg.Store.RequestCancel(id); err != nil {
		return false, err
	}
	if j.State == Queued {
		// Not dispatched yet: fail it here unless the job loop grabbed it in
		// the meantime (then the flag drains it).
		if _, err := s.cfg.Store.SetState(id, Failed, "canceled"); err == nil {
			s.event("job %s canceled", id)
			return true, nil
		}
	}
	s.cfg.Server.CancelJob(id)
	s.event("job %s cancellation requested", id)
	return true, nil
}

// poke nudges the job loop without blocking.
func (s *Service) poke() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Run drains the queue until Stop or Kill. It blocks; run it in a goroutine.
// The TTL sweep has a goroutine of its own for as long: runOne holds this loop
// for a whole job, and a deadline has to hold while it does.
func (s *Service) Run() {
	defer close(s.done)
	var sweeper sync.WaitGroup
	sweeper.Add(1)
	go func() {
		defer sweeper.Done()
		dexplore.Monitor(s.sweepEvery, s.stop, s.sweep)
	}()
	defer sweeper.Wait() // before done closes: Stop and Kill close the store after it
	for {
		select {
		case <-s.stop:
			return
		default:
		}
		if j, ok := s.cfg.Store.NextQueued(); ok {
			s.runOne(j)
			continue
		}
		select {
		case <-s.stop:
			return
		case <-s.wake:
		}
	}
}

// sweep fails queued jobs past their TTL and drains an overdue running one;
// runOne records why when the drain returns (the deadline is in the WAL
// already, so no intent needs persisting).
func (s *Service) sweep() {
	overdue, err := s.cfg.Store.SweepExpired()
	if err != nil {
		s.event("ttl sweep: %v", err)
	}
	for _, id := range overdue {
		if s.cfg.Server.CancelJob(id) {
			s.event("job %s overdue; canceling", id)
		}
	}
}

// runOne runs one job start to finish: state transitions are persisted
// before the action they describe, so the WAL always knows at least as much
// as the cluster. A job that completes costs four fsyncs — its submission,
// Running, the report file, Finish — and no checkpoint: the exploration's last
// cut comes back from RunJob unwritten, and only a drained job, which the next
// start resumes, has a reader for it.
func (s *Service) runOne(j *Job) {
	if s.cfg.Validate != nil {
		// Re-vet recovered jobs: the registry may have changed across a
		// restart, and an unbuildable spec would fail at dispatch anyway.
		if err := s.cfg.Validate(j.Spec); err != nil {
			_, _ = s.cfg.Store.SetState(j.ID, Failed, err.Error())
			return
		}
	}
	if s.cfg.Store.Overdue(j) {
		// Past its TTL between two sweeps (or while a longer job held the
		// loop): failed here, never dispatched.
		_, _ = s.cfg.Store.SetState(j.ID, Failed, ttlExpired)
		s.event("job %s: %s before it started", j.ID, ttlExpired)
		return
	}
	jcfg := dcoord.Config{Fingerprint: j.Spec, JobID: j.ID, CheckpointPath: s.cfg.Store.CheckpointPath(j.ID)}
	if j.Attempts > 0 {
		// A recovered job: resume from its frontier checkpoint when one was
		// written; otherwise the exploration restarts (same result, lost
		// progress).
		if ckp, err := dexplore.LoadCheckpoint(jcfg.CheckpointPath); err == nil {
			jcfg.Resume = ckp
			s.event("job %s resuming from checkpoint (%d interleavings done)", j.ID, ckp.Interleavings)
		} else if !os.IsNotExist(err) {
			s.event("job %s checkpoint unreadable (%v); restarting exploration", j.ID, err)
		}
	}
	if _, err := s.cfg.Store.SetState(j.ID, Running, ""); err != nil {
		s.event("job %s: %v", j.ID, err)
		return
	}
	s.event("job %s started (attempt %d)", j.ID, j.Attempts+1)

	started := time.Now()
	rep, left, runErr := s.cfg.Server.RunJob(jcfg)
	elapsed := time.Since(started).Seconds()

	if s.isKilled() {
		// Crash simulation: leave the job Running in the WAL, exactly as a
		// real crash between dispatch and completion would.
		return
	}
	// Why the job gets no report, if it gets none. A job past its TTL is failed
	// whether the sweep drained it or it finished by itself: the TTL is a
	// complete-by budget, not a sweep's timing.
	var ended string
	switch cur, _ := s.cfg.Store.Get(j.ID); {
	case cur == nil:
	case s.cfg.Store.Overdue(cur):
		ended = ttlExpired
	case cur.CancelRequested:
		ended = "canceled"
	}
	if s.isStopping() && runErr == nil && ended == "" {
		// Graceful shutdown drained the exploration mid-flight: what it left
		// holds the remaining frontier, so that is saved, the job goes back to
		// the queue and the next start resumes it. (If it actually finished
		// during the drain, the checkpoint has an empty frontier and the next
		// attempt completes instantly with the full report.)
		if err := s.cfg.Store.SaveCheckpoint(j.ID, left); err != nil {
			s.event("job %s: %v; the next start resumes from an older checkpoint, or restarts", j.ID, err)
		}
		_, _ = s.cfg.Store.SetState(j.ID, Queued, "")
		s.event("job %s requeued for the next start (%d interleavings so far)", j.ID, rep.Interleavings)
		return
	}
	// A job that ends here, failed or done, has no reader for the periodic
	// checkpoints a long run wrote (only a drained job, above, is resumed), and
	// nothing writes the path once RunJob has returned: they go with it.
	fail := func(why string) {
		_, _ = s.cfg.Store.SetState(j.ID, Failed, why)
		os.Remove(jcfg.CheckpointPath)
	}
	if runErr != nil {
		fail(runErr.Error())
		s.event("job %s failed: %v", j.ID, runErr)
		return
	}
	if ended != "" {
		fail(ended)
		s.event("job %s %s after %d interleavings", j.ID, ended, rep.Interleavings)
		return
	}
	if _, err := s.cfg.Store.SetState(j.ID, Merging, ""); err != nil {
		s.event("job %s: %v", j.ID, err)
		return
	}
	jrep := NewJobReport(j.Spec, rep, elapsed)
	if err := s.cfg.Store.SaveReport(j.ID, jrep); err != nil {
		fail(fmt.Sprintf("persist report: %v", err))
		s.event("job %s failed: %v", j.ID, err)
		return
	}
	if _, err := s.cfg.Store.Finish(j.ID, jrep); err != nil {
		s.event("job %s: %v", j.ID, err)
		return
	}
	os.Remove(jcfg.CheckpointPath)
	s.observeDuration(elapsed)
	s.event("job %s done: %s (%.1fs)", j.ID, jrep.Summary(), elapsed)
}

// observeDuration records one finished job's wall time (last 32 kept).
func (s *Service) observeDuration(sec float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.durations = append(s.durations, sec)
	if len(s.durations) > 32 {
		s.durations = s.durations[len(s.durations)-32:]
	}
}

// recentJobSeconds is the mean wall time of recently finished jobs (0 when
// none finished yet).
func (s *Service) recentJobSeconds() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.durations) == 0 {
		return 0
	}
	sum := 0.0
	for _, d := range s.durations {
		sum += d
	}
	return sum / float64(len(s.durations))
}

// isKilled reports whether Kill fired.
func (s *Service) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// isStopping reports whether a graceful Stop is in progress.
func (s *Service) isStopping() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stopping
}

// Stop shuts down gracefully: the active job drains (its partial state is
// requeued on the next start via crash recovery — reports are only written
// for completed explorations), the store snapshots, the cluster says
// goodbye.
func (s *Service) Stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
	s.once.Do(func() { close(s.stop) })
	if _, id, ok := s.cfg.Server.CurrentStatus(); ok {
		s.cfg.Server.CancelJob(id)
	}
	<-s.done
	s.cfg.Server.Close(false)
	_ = s.cfg.Store.Snapshot()
	_ = s.cfg.Store.Close()
}

// Kill simulates a crash: worker connections drop mid-lease, the WAL is left
// exactly as it was (the active job still Running), nothing is flushed.
// Tests reopen the store afterwards and assert recovery.
func (s *Service) Kill() {
	s.mu.Lock()
	s.killed = true
	s.mu.Unlock()
	s.once.Do(func() { close(s.stop) })
	s.cfg.Server.Close(true)
	<-s.done
	_ = s.cfg.Store.Close()
}
