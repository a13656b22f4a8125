package dcoord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// testFactory builds a JobSpec factory over the local test programs, with one
// shared memoRunner per workload so the serial and distributed explorations
// see identical program behavior (same trick as the cluster tests).
type testFactory struct {
	mu    sync.Mutex
	memos map[string]*memoRunner
}

func newTestFactory() *testFactory { return &testFactory{memos: make(map[string]*memoRunner)} }

func (f *testFactory) memo(workload string) *memoRunner {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.memos[workload]
	if !ok {
		m = newMemoRunner()
		f.memos[workload] = m
	}
	return m
}

// config resolves a spec into a full ExplorerConfig; both the serial baseline
// and the worker factory go through it so the two cannot drift.
func (f *testFactory) config(spec JobSpec) (core.ExplorerConfig, error) {
	cfg := spec.ExplorerConfig()
	switch spec.Workload {
	case "fanin":
		cfg.Program = fanInError
	default:
		return core.ExplorerConfig{}, fmt.Errorf("unknown test workload %q", spec.Workload)
	}
	cfg.Runner = f.memo(spec.Workload).Run
	return cfg, nil
}

// startServer brings up a persistent Server on an ephemeral localhost port.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	s := NewServer(cfg)
	ln, err := s.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return s, ln.Addr().String()
}

// joinAnyWorkers connects n any-workload workers and returns a stop func that
// waits for their Run loops to exit.
func joinAnyWorkers(t *testing.T, addr string, f *testFactory, n, slots int) func() {
	t.Helper()
	var wg sync.WaitGroup
	workers := make([]*Worker, n)
	for i := 0; i < n; i++ {
		w := NewWorker(WorkerConfig{
			Addr:    addr,
			Name:    fmt.Sprintf("any%d", i),
			Slots:   slots,
			Factory: f.config,
		})
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	return func() {
		for _, w := range workers {
			w.Stop()
		}
		wg.Wait()
	}
}

// waitForPool blocks until the server has n pooled workers.
func waitForPool(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.Workers()) >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("pool never reached %d workers: %+v", n, s.Workers())
}

// runJob runs one job with a hang guard. What the job left is saved where a
// one-shot exploration writes its final checkpoint, as a service saves a
// drained job's.
func runJob(t *testing.T, s *Server, cfg Config) (*core.Report, error) {
	t.Helper()
	type out struct {
		rep *core.Report
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rep, left, err := s.RunJob(cfg)
		if err == nil && left != nil {
			err = left.Save(cfg.CheckpointPath)
		}
		ch <- out{rep, err}
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", cfg.JobID)
		return nil, nil
	}
}

// TestServerRunsSequentialJobs is the heart of verification-as-a-service:
// one pool of any-workload workers serves two different explorations back to
// back, connections surviving the job boundary, and each merged report
// matches its serial baseline.
func TestServerRunsSequentialJobs(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()
	stop := joinAnyWorkers(t, addr, f, 2, 2)
	defer stop()
	waitForPool(t, s, 2)

	specs := []JobSpec{
		{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: 1}},
		{Workload: "fanin", Procs: 4, Space: dexplore.Space{MixingBound: 1}},
	}
	for i, spec := range specs {
		id := fmt.Sprintf("job%d", i)
		rep, err := runJob(t, s, Config{Fingerprint: spec, JobID: id})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		cfg, err := f.config(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Procs = spec.Procs // ExplorerConfig projected the spec already; be explicit
		checkSameReport(t, id, runSerial(t, cfg), rep)
	}
	if got := len(s.Workers()); got != 2 {
		t.Errorf("pool shrank to %d workers across the job boundary, want 2", got)
	}
}

// TestServerSkipsIneligiblePinnedWorker: a pinned worker whose fingerprint
// does not match the job must never be dispatched to — if the server leaked a
// task to it, the worker would answer Fatal and the job would fail.
func TestServerSkipsIneligiblePinnedWorker(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()

	// A worker pinned to a 5-proc fanin exploration: wrong procs for the job.
	pinnedCfg := core.ExplorerConfig{Procs: 5, Clock: core.Lamport, Transport: core.Separate, MixingBound: 1, Program: fanInError}
	pinned := NewWorker(WorkerConfig{
		Addr:        addr,
		Name:        "pinned",
		Fingerprint: FingerprintFor("fanin", &pinnedCfg),
		Explorer:    pinnedCfg,
	})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := pinned.Run(); err != nil {
			t.Errorf("pinned worker: %v", err)
		}
	}()
	defer func() { pinned.Stop(); wg.Wait() }()
	stop := joinAnyWorkers(t, addr, f, 1, 2)
	defer stop()
	waitForPool(t, s, 2)

	spec := JobSpec{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: 1}}
	rep, err := runJob(t, s, Config{Fingerprint: spec, JobID: "onlyany"})
	if err != nil {
		t.Fatalf("job with one eligible worker failed: %v", err)
	}
	cfg, err := f.config(spec)
	if err != nil {
		t.Fatal(err)
	}
	checkSameReport(t, "onlyany", runSerial(t, cfg), rep)
}

// TestServerFactoryFailureFailsJob: a worker that cannot build the announced
// spec answers Fatal, and the job fails loudly instead of hanging or burning
// the redelivery cap.
func TestServerFactoryFailureFailsJob(t *testing.T) {
	f := newTestFactory()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()
	stop := joinAnyWorkers(t, addr, f, 1, 1)
	defer stop()
	waitForPool(t, s, 1)

	spec := JobSpec{Workload: "no-such-workload", Procs: 3, Space: dexplore.Space{MixingBound: 1}}
	_, err := runJob(t, s, Config{Fingerprint: spec, JobID: "bad"})
	if err == nil {
		t.Fatal("job with unbuildable spec succeeded")
	}
	if !strings.Contains(err.Error(), "cannot build") {
		t.Errorf("error %q does not surface the factory failure", err)
	}
}

// TestServerRejectsConcurrentJobs: jobs run one at a time; a second RunJob
// while one is active is refused, not interleaved.
func TestServerRejectsConcurrentJobs(t *testing.T) {
	s := NewServer(ServerConfig{})
	s.mu.Lock()
	s.cur = &Coordinator{machine: machine{cfg: Config{JobID: "busy"}}} // simulate an active job without running one
	s.mu.Unlock()
	spec := JobSpec{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: 1}}
	if _, _, err := s.RunJob(Config{Fingerprint: spec, JobID: "second"}); err == nil || !strings.Contains(err.Error(), "busy still running") {
		t.Errorf("concurrent RunJob error = %v, want 'job busy still running'", err)
	}
}

// TestPoolWorkerEligible covers the dispatch filter: any-workload workers
// match everything; pinned workers match only the jobs JobSpec.Check accepts
// against their spec, with 0 scale/iters acting as wildcards.
func TestPoolWorkerEligible(t *testing.T) {
	spec := JobSpec{Workload: "fanin", Procs: 3, Scale: 50, Iters: 2, Space: dexplore.Space{MixingBound: 1}}
	pinned := func(mutate func(*JobSpec)) *JobSpec {
		w := spec
		mutate(&w)
		return &w
	}
	cases := []struct {
		name   string
		pinned *JobSpec
		want   bool
	}{
		{"any", nil, true},
		{"pinned-match", pinned(func(*JobSpec) {}), true},
		{"pinned-wildcard-params", pinned(func(w *JobSpec) { w.Scale, w.Iters = 0, 0 }), true},
		{"pinned-other-bounds", pinned(func(w *JobSpec) { w.MaxInterleavings = 7 }), true},
		{"pinned-wrong-workload", pinned(func(w *JobSpec) { w.Workload = "other" }), false},
		{"pinned-wrong-space", pinned(func(w *JobSpec) { w.MixingBound = 2 }), false},
		{"pinned-wrong-scale", pinned(func(w *JobSpec) { w.Scale = 100 }), false},
		{"pinned-wrong-iters", pinned(func(w *JobSpec) { w.Iters = 4 }), false},
	}
	for _, tc := range cases {
		if got := (&workerConn{pinned: tc.pinned}).eligible(&spec); got != tc.want {
			t.Errorf("%s: eligible = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOneShotIsAOneJobServer: Coordinator.ListenAndServe is a Server whose
// only job is that coordinator. So an any-workload worker, which a one-shot
// coordinator used to refuse, builds the announced spec and completes the
// exploration alone, with the serial report; pinned and any-workload workers
// share one; and when Wait returns the server is gone — every worker was told
// done and its Run returns nil, none left redialling a closed listener.
func TestOneShotIsAOneJobServer(t *testing.T) {
	f := newTestFactory()
	spec := JobSpec{Workload: "fanin", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}}
	cfg, err := f.config(spec)
	if err != nil {
		t.Fatal(err)
	}
	serial := runSerial(t, cfg)

	for _, pinned := range []int{0, 2} {
		t.Run(fmt.Sprintf("pinned=%d", pinned), func(t *testing.T) {
			c, addr := startCoordinator(t, Config{Fingerprint: spec, LeaseTTL: 2 * time.Second})
			if st := c.Status(); st.Workload != "fanin" || st.State != "exploring" {
				t.Fatalf("status before any worker: %+v", st)
			}
			// No replay runs until every worker has joined: the exploration
			// cannot end while one is still dialling.
			n := pinned + 1
			var mu sync.Mutex
			var events []string
			joined := make(chan struct{}, n)
			onEvent := func(line string) {
				mu.Lock()
				events = append(events, line)
				mu.Unlock()
				if strings.HasPrefix(line, "joined ") {
					joined <- struct{}{}
				}
			}
			gate := make(chan struct{})
			gated := func(run func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error)) func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
				return func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
					<-gate
					return run(cfg, d)
				}
			}
			ws := []*Worker{NewWorker(WorkerConfig{Addr: addr, Name: "any", Slots: 2, OnEvent: onEvent, Factory: func(s JobSpec) (core.ExplorerConfig, error) {
				cfg, err := f.config(s)
				cfg.Runner = gated(cfg.Runner)
				return cfg, err
			}})}
			for i := 0; i < pinned; i++ {
				pcfg := cfg
				pcfg.Runner = gated(cfg.Runner)
				ws = append(ws, NewWorker(WorkerConfig{Addr: addr, Name: fmt.Sprintf("pinned%d", i), OnEvent: onEvent, Fingerprint: FingerprintFor("fanin", &pcfg), Explorer: pcfg}))
			}
			done := make(chan error, n)
			for _, w := range ws {
				go func() { done <- w.Run() }()
			}
			for i := 0; i < n; i++ {
				select {
				case <-joined:
				case <-time.After(10 * time.Second):
					t.Fatalf("only %d of %d workers joined: %q", i, n, events)
				}
			}
			close(gate)
			rep, err := waitFor(t, c)
			if err != nil {
				t.Fatal(err)
			}
			checkSameReport(t, "one-shot", serial, rep)
			for range ws {
				select {
				case err := <-done:
					if err != nil {
						t.Errorf("worker after Wait: %v", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("a worker is still running after Wait returned: %q", events)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			announced := 0
			for _, line := range events {
				if strings.Contains(line, "reconnecting") || strings.Contains(line, "dial ") {
					t.Errorf("worker event after the exploration: %s", line)
				}
				if line == "job fanin: fanin procs=4" {
					announced++
				}
			}
			if announced != n {
				t.Errorf("%d of %d workers logged the announcement under the job's id: %q", announced, n, events)
			}
			if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
				conn.Close()
				t.Error("the listener is still open after Wait returned")
			}
		})
	}
}

// TestRunJobAndOneShotShareAConfig: Server.RunJob takes the Config a one-shot
// New takes, and the same Config — a cap that binds, a checkpoint path and
// cadence — run either way yields the same report and the same final
// checkpoint, byte for byte. One single-slot worker whose slice never ends
// makes the lease sequence, and so the completion order, a function of the
// Config alone.
func TestRunJobAndOneShotShareAConfig(t *testing.T) {
	f := newTestFactory()
	spec := JobSpec{Workload: "fanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}, MaxInterleavings: 6}
	run := func(t *testing.T, start func(Config) (string, func() (*core.Report, error))) (report, checkpoint []byte) {
		t.Helper()
		cfg := Config{Fingerprint: spec, JobID: "shared", CheckpointPath: filepath.Join(t.TempDir(), "ckp.json"), CheckpointEvery: 3}
		addr, wait := start(cfg)
		w := NewWorker(WorkerConfig{Addr: addr, Name: "w", Factory: f.config})
		w.slice = time.Hour
		done := make(chan error, 1)
		go func() { done <- w.Run() }()
		rep, err := wait()
		if err != nil {
			t.Fatal(err)
		}
		w.Stop()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
		if rep.Interleavings != spec.MaxInterleavings || !rep.Capped {
			t.Fatalf("fixture: %s, want a report capped at %d", rep.Summary(), spec.MaxInterleavings)
		}
		report, err = json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if checkpoint, err = os.ReadFile(cfg.CheckpointPath); err != nil {
			t.Fatal(err)
		}
		return report, checkpoint
	}
	oneRep, oneCkp := run(t, func(cfg Config) (string, func() (*core.Report, error)) {
		c, addr := startCoordinator(t, cfg)
		return addr, func() (*core.Report, error) { return waitFor(t, c) }
	})
	jobRep, jobCkp := run(t, func(cfg Config) (string, func() (*core.Report, error)) {
		s, addr := startServer(t, ServerConfig{})
		t.Cleanup(func() { s.Close() })
		return addr, func() (*core.Report, error) { return runJob(t, s, cfg) }
	})
	if !bytes.Equal(oneRep, jobRep) {
		t.Errorf("reports differ:\none-shot: %s\n  RunJob: %s", oneRep, jobRep)
	}
	if !bytes.Equal(oneCkp, jobCkp) {
		t.Errorf("final checkpoints differ:\none-shot: %s\n  RunJob: %s", oneCkp, jobCkp)
	}
}

// TestRunJobAdvertisedTTLWins: the lease TTL is the pool's, not the job's. A
// worker heartbeats at a third of what its welcome frame said, before any job
// existed, so RunJob overwrites a Config.LeaseTTL that disagrees — defaulting
// it would expire every lease of a job that asked for less.
func TestRunJobAdvertisedTTLWins(t *testing.T) {
	s, addr := startServer(t, ServerConfig{LeaseTTL: 2 * time.Second})
	defer s.Close()
	cfg := leaseTestConfig(time.Millisecond)
	cfg.JobID = "ttl"
	fake := dialFake(t, addr, cfg.Fingerprint, "held", 1)
	defer fake.close()
	done := make(chan error, 1)
	go func() {
		_, _, err := s.RunJob(cfg)
		done <- err
	}()
	fake.recvTask()
	s.mu.Lock()
	c := s.cur
	s.mu.Unlock()
	if c.cfg.LeaseTTL != 2*time.Second || c.maxLeaseAge != leaseAgeTTLs*2*time.Second {
		t.Errorf("job runs under TTL %v (max lease age %v), want the 2s the welcome frame advertised", c.cfg.LeaseTTL, c.maxLeaseAge)
	}
	if st := c.Status(); st.Requeues != 0 || st.ActiveLeases != 1 {
		t.Errorf("the lease did not survive the job's own 1ms TTL: %+v", st)
	}
	s.CancelJob("ttl")
	fake.close() // its lease requeues, and the drain completes
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("drained job: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunJob did not return after the drain")
	}
}
