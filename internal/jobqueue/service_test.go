package jobqueue

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
	"dampi/mpi"
)

// memoRunner memoizes program executions by decision signature, as in the
// dcoord equivalence tests: sharing one memoRunner between the serial
// explorer and the service's workers hides the program's residual scheduling
// non-determinism, so tests compare pure schedule-generator behavior.
type memoRunner struct {
	mu   sync.Mutex
	runs map[string]*memoEntry
}

type memoEntry struct {
	trace *core.RunTrace
	res   *core.InterleavingResult
}

func newMemoRunner() *memoRunner { return &memoRunner{runs: make(map[string]*memoEntry)} }

func (m *memoRunner) Run(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	key := d.String()
	m.mu.Lock()
	ent := m.runs[key]
	m.mu.Unlock()
	if ent == nil {
		base := *cfg
		base.Runner = nil
		trace, res, err := core.ExecuteRun(&base, d)
		if err != nil {
			return nil, nil, err
		}
		m.mu.Lock()
		if cached, ok := m.runs[key]; ok {
			ent = cached
		} else {
			ent = &memoEntry{trace: trace, res: res}
			m.runs[key] = ent
		}
		m.mu.Unlock()
	}
	cp := *ent.res
	cp.Decisions = ent.res.Decisions.Clone()
	return ent.trace, &cp, nil
}

// fanInError fails whenever rank 2's message wins the first wildcard match.
func fanInError(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte{byte(p.Rank())}, c)
	}
	for i := 0; i < p.Size()-2; i++ {
		_, st, err := p.Recv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if i == 0 && st.Source == 2 {
			return fmt.Errorf("fan-in: rank 2 arrived first")
		}
	}
	return nil
}

// slowFanIn is fanInError with an artificial per-run delay, so tests can
// reliably kill or stop the service while the job is still in flight.
func slowFanIn(p *mpi.Proc) error {
	time.Sleep(4 * time.Millisecond)
	return fanInError(p)
}

// testFactory resolves job specs into explorer configs over the local test
// programs, with one shared memoRunner per (workload, procs) so serial
// baselines and service runs cannot drift.
type testFactory struct {
	mu    sync.Mutex
	memos map[string]*memoRunner
	// brokenRuns counts the replays of the "brokenfanin" workload, whose
	// harness fails from the tenth on.
	brokenRuns atomic.Int64
	// stallAfter, when positive, parks every replay past that many for good:
	// a job that is still running whenever its process is killed.
	stallAfter int64
	runs       atomic.Int64
}

func newTestFactory() *testFactory { return &testFactory{memos: make(map[string]*memoRunner)} }

func (f *testFactory) memo(key string) *memoRunner {
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.memos[key]
	if !ok {
		m = newMemoRunner()
		f.memos[key] = m
	}
	return m
}

func (f *testFactory) config(spec dcoord.JobSpec) (core.ExplorerConfig, error) {
	cfg := spec.ExplorerConfig()
	switch spec.Workload {
	case "fanin":
		cfg.Program = fanInError
	case "slowfanin":
		cfg.Program = slowFanIn
	case "brokenfanin":
		cfg.Program = slowFanIn
	default:
		return core.ExplorerConfig{}, fmt.Errorf("unknown test workload %q", spec.Workload)
	}
	cfg.Runner = f.memo(fmt.Sprintf("%s/%d", spec.Workload, spec.Procs)).Run
	if run := cfg.Runner; spec.Workload == "brokenfanin" {
		cfg.Runner = func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
			if f.brokenRuns.Add(1) >= 10 {
				return nil, nil, errors.New("replay harness broke")
			}
			return run(cfg, d)
		}
	}
	if run := cfg.Runner; f.stallAfter > 0 {
		cfg.Runner = func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
			if f.runs.Add(1) > f.stallAfter {
				select {}
			}
			return run(cfg, d)
		}
	}
	return cfg, nil
}

// serialReport explores the spec in-process (through the shared memo) — the
// baseline every service-produced report must match byte for byte.
func serialReport(t *testing.T, f *testFactory, spec dcoord.JobSpec) *JobReport {
	t.Helper()
	cfg, err := f.config(spec)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatalf("serial explore: %v", err)
	}
	rep.SortErrors() // the serial explorer lists errors in discovery order, the cluster by reproducer
	return NewJobReport(spec, rep, 0)
}

// completionIndex matches the "#<index>" of a printed error: on the cluster
// it numbers replays in the order their leases merged, which is the
// scheduler's (the smoke scripts strip it the same way).
var completionIndex = regexp.MustCompile(`#[0-9]+`)

// checkSameJobReport asserts the service report renders byte-identically to
// the serial baseline (the acceptance criterion), completion indexes aside,
// and agrees on every scheduling-independent measure.
func checkSameJobReport(t *testing.T, label string, serial, got *JobReport) {
	t.Helper()
	if got == nil {
		t.Errorf("%s: no report", label)
		return
	}
	if got.Interleavings != serial.Interleavings || got.Deadlocks != serial.Deadlocks ||
		got.DecisionPoints != serial.DecisionPoints || got.WildcardsAnalyzed != serial.WildcardsAnalyzed ||
		got.AutoAbstracted != serial.AutoAbstracted {
		t.Errorf("%s: counters differ:\n got %+v\nwant %+v", label, got, serial)
	}
	if gt, st := completionIndex.ReplaceAllString(got.Text(), "#"), completionIndex.ReplaceAllString(serial.Text(), "#"); gt != st {
		t.Errorf("%s: report text differs:\n got: %q\nwant: %q", label, gt, st)
	}
}

// harness is one running verification service over a temp store.
type harness struct {
	t           *testing.T
	store       *Store
	server      *dcoord.Server
	svc         *Service
	addr        string
	api         *httptest.Server
	runDone     chan struct{}
	stopWorkers func()
	// ahead is how far the store's clock runs ahead of the wall clock: the
	// TTL tests advance it instead of sleeping a deadline out.
	ahead atomic.Int64
}

// startHarness opens the store at dir, starts the cluster server, the service
// loop (sweeping every 20 ms unless a tweak, run before the loop starts, says
// otherwise), an httptest API server, and n any-workload workers.
func startHarness(t *testing.T, dir string, f *testFactory, n, slots, ckpEvery int, tweak ...func(*Service)) *harness {
	t.Helper()
	store, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	server := dcoord.NewServer(dcoord.ServerConfig{LeaseTTL: 2 * time.Second, CheckpointEvery: ckpEvery})
	svc, err := NewService(ServiceConfig{Store: store, Server: server})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	svc.sweepEvery = 20 * time.Millisecond
	for _, f := range tweak {
		f(svc)
	}
	ln, err := server.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	h := &harness{
		t:       t,
		store:   store,
		server:  server,
		svc:     svc,
		addr:    ln.Addr().String(),
		api:     httptest.NewServer(NewAPI(svc)),
		runDone: make(chan struct{}),
	}
	store.now = func() time.Time { return time.Now().Add(time.Duration(h.ahead.Load())) }
	go func() {
		defer close(h.runDone)
		svc.Run()
	}()
	h.stopWorkers = joinWorkers(t, h.addr, f, n, slots)
	return h
}

// joinWorkers connects n any-workload workers; the returned func stops them
// and waits out their Run loops.
func joinWorkers(t *testing.T, addr string, f *testFactory, n, slots int) func() {
	t.Helper()
	var wg sync.WaitGroup
	workers := make([]*dcoord.Worker, n)
	for i := 0; i < n; i++ {
		w := dcoord.NewWorker(dcoord.WorkerConfig{
			Addr:    addr,
			Name:    fmt.Sprintf("w%d", i),
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

// waitJobTerminal polls until the job reaches a terminal state.
func waitJobTerminal(t *testing.T, store *Store, id string) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := store.Get(id); ok && j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := store.Get(id)
	t.Fatalf("job %s never finished: %+v", id, j)
	return nil
}

// waitRunningProgress polls until the job is running and its exploration has
// merged at least min interleavings — the window the kill/stop tests strike
// in.
func waitRunningProgress(t *testing.T, h *harness, id string, min int) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := h.store.Get(id); ok && j.State == Running {
			if est, jid, ok := h.server.CurrentStatus(); ok && jid == id && est.Interleavings >= min {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %d merged interleavings while running", id, min)
}

// TestServiceDrainsQueueAcrossJobs is the tentpole acceptance test: two jobs
// submitted while the pool is already connected both complete, sequentially,
// on the same workers, and each persisted report is byte-identical to a
// serial verification of the same spec.
func TestServiceDrainsQueueAcrossJobs(t *testing.T) {
	f := newTestFactory()
	h := startHarness(t, t.TempDir(), f, 2, 2, 0)
	defer h.api.Close()
	defer h.stopWorkers()

	specs := []dcoord.JobSpec{
		{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: core.Unbounded}},
		{Workload: "fanin", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}},
	}
	ids := make([]string, len(specs))
	for i, spec := range specs {
		j, dup, err := h.svc.Submit(spec, 0)
		if err != nil || dup {
			t.Fatalf("submit %d: dup=%v err=%v", i, dup, err)
		}
		ids[i] = j.ID
	}
	for i, id := range ids {
		j := waitJobTerminal(t, h.store, id)
		if j.State != Done {
			t.Fatalf("job %s = %s (%s), want done", id, j.State, j.Error)
		}
		if !j.HasReport || j.Interleavings == 0 {
			t.Errorf("job %s summary not recorded: %+v", id, j)
		}
		rep, err := h.store.LoadReport(id)
		if err != nil {
			t.Fatalf("report %s: %v", id, err)
		}
		checkSameJobReport(t, id, serialReport(t, f, specs[i]), rep)
	}
	if got := len(h.server.Workers()); got != 2 {
		t.Errorf("pool shrank to %d workers across job boundaries, want 2", got)
	}
	h.svc.Stop()
	<-h.runDone
}

// crashChildStore, in a child process's environment, is the store directory
// TestServiceKillRestartRecovers serves there until its parent kills it.
const crashChildStore = "JOBQUEUE_CRASH_CHILD_STORE"

// TestServiceKillRestartRecovers is the crash-recovery regression: a real
// service process is killed with SIGKILL mid-job, once the job's periodic
// checkpoint exists, with a second job still queued; a fresh service over the
// same store recovers both, resumes the interrupted exploration from its
// frontier checkpoint, and both final reports match serial runs — nothing
// queued or running is lost. The child is this test binary, run again with
// the store directory in its environment.
func TestServiceKillRestartRecovers(t *testing.T) {
	if dir := os.Getenv(crashChildStore); dir != "" {
		// The child: its workers park for good after a few replays, so the job
		// is still running, its checkpoint written, when the SIGKILL lands.
		f := newTestFactory()
		f.stallAfter = 6
		startHarness(t, dir, f, 2, 1, 1) // checkpoint every merge
		time.Sleep(time.Minute)
		t.Fatal("the parent never killed this service")
	}
	f := newTestFactory()
	dir := t.TempDir()
	slow := dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}
	quick := dcoord.JobSpec{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: core.Unbounded}}
	store := openTestStore(t, dir, 0)
	j1, _, err := store.Submit(slow, 0)
	if err != nil {
		t.Fatal(err)
	}
	j2, _, err := store.Submit(quick, 0)
	if err != nil {
		t.Fatal(err)
	}
	store.Close()

	child := exec.Command(os.Args[0], "-test.run=^TestServiceKillRestartRecovers$", "-test.count=1", "-test.timeout=2m")
	child.Env = append(os.Environ(), crashChildStore+"="+dir)
	var out bytes.Buffer
	child.Stdout, child.Stderr = &out, &out
	if err := child.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- child.Wait() }()
	ckpPath := filepath.Join(dir, ckpDir, j1.ID+".json")
	for _, err := os.Stat(ckpPath); err != nil; _, err = os.Stat(ckpPath) {
		select {
		case err := <-exited:
			t.Fatalf("the service exited (%v) before it wrote a checkpoint:\n%s", err, out.Bytes())
		case <-time.After(time.Millisecond):
		}
	}
	if err := child.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	<-exited
	if ckp, err := dexplore.LoadCheckpoint(ckpPath); err != nil || ckp.Interleavings < 1 {
		t.Fatalf("the killed service left checkpoint %+v (err %v), want one with merged replays", ckp, err)
	}

	h := startHarness(t, dir, f, 2, 1, 1)
	defer h.api.Close()
	defer h.stopWorkers()

	// The interrupted job was recovered to the queue with its attempt count,
	// so the new service resumes it from the checkpoint instead of restarting.
	if j, ok := h.store.Get(j1.ID); !ok || j.Attempts < 1 {
		t.Errorf("recovered job = %+v; want attempts >= 1", j)
	}
	for _, tc := range []struct {
		id   string
		spec dcoord.JobSpec
	}{{j1.ID, slow}, {j2.ID, quick}} {
		j := waitJobTerminal(t, h.store, tc.id)
		if j.State != Done {
			t.Fatalf("job %s = %s (%s), want done", tc.id, j.State, j.Error)
		}
		rep, err := h.store.LoadReport(tc.id)
		if err != nil {
			t.Fatalf("report %s: %v", tc.id, err)
		}
		checkSameJobReport(t, tc.id, serialReport(t, f, tc.spec), rep)
	}
	h.svc.Stop()
	<-h.runDone
}

// TestServiceGracefulStopRequeues: SIGTERM-style Stop drains the active job
// and puts it back in the queue — no partial report is ever recorded — and
// the next start finishes it correctly.
func TestServiceGracefulStopRequeues(t *testing.T) {
	f := newTestFactory()
	dir := t.TempDir()
	spec := dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}

	h1 := startHarness(t, dir, f, 1, 1, 1)
	j, _, err := h1.svc.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, h1, j.ID, 1)
	h1.svc.Stop()
	<-h1.runDone
	h1.api.Close()
	h1.stopWorkers()

	peek, err := OpenStore(StoreConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := peek.Get(j.ID); !ok || got.State != Queued || got.HasReport {
		t.Errorf("drained job = %+v; want queued without a report", got)
	}
	peek.Close()

	h2 := startHarness(t, dir, f, 1, 1, 1)
	defer h2.api.Close()
	defer h2.stopWorkers()
	got := waitJobTerminal(t, h2.store, j.ID)
	if got.State != Done {
		t.Fatalf("job %s = %s (%s), want done", j.ID, got.State, got.Error)
	}
	rep, err := h2.store.LoadReport(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	checkSameJobReport(t, j.ID, serialReport(t, f, spec), rep)
	h2.svc.Stop()
	<-h2.runDone
}

// TestServiceCancelRunningJob: cancelling an active job drains its
// exploration and records the failure instead of a report.
func TestServiceCancelRunningJob(t *testing.T) {
	f := newTestFactory()
	h := startHarness(t, t.TempDir(), f, 1, 1, 0)
	defer h.api.Close()
	defer h.stopWorkers()

	j, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, h, j.ID, 1)
	if ok, err := h.svc.Cancel(j.ID); err != nil || !ok {
		t.Fatalf("cancel: ok=%v err=%v", ok, err)
	}
	got := waitJobTerminal(t, h.store, j.ID)
	if got.State != Failed || got.Error != "canceled" {
		t.Errorf("canceled job = %s (%q), want failed (canceled)", got.State, got.Error)
	}
	if got.HasReport {
		t.Error("canceled job has a report")
	}
	h.svc.Stop()
	<-h.runDone
}

// TestRunningJobPastTTLIsCancelled: a job's TTL holds while the service is
// busy — with that very job. The sweep has its own goroutine, so an overdue
// running job is drained and recorded failed with the reason, not done (the
// sweep used to be polled only between jobs) and not canceled; the queue moves
// on to the next job.
func TestRunningJobPastTTLIsCancelled(t *testing.T) {
	f := newTestFactory()
	h := startHarness(t, t.TempDir(), f, 1, 1, 0)
	defer h.api.Close()
	defer h.stopWorkers()

	slow, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: core.Unbounded}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, h, slow.ID, 1) // partial progress: it is mid-exploration
	h.ahead.Store(int64(2 * time.Minute))

	got := waitJobTerminal(t, h.store, slow.ID)
	if got.State != Failed || got.Error != "ttl expired" || got.HasReport {
		t.Errorf("overdue running job = %s (%q, report=%v), want failed (ttl expired) without a report", got.State, got.Error, got.HasReport)
	}
	if got := waitJobTerminal(t, h.store, next.ID); got.State != Done {
		t.Errorf("job queued behind the overdue one = %s (%q), want done", got.State, got.Error)
	}
	h.svc.Stop()
	<-h.runDone
}

// TestQueuedJobPastTTLNeverStarts: a job whose TTL ran out while a longer job
// held the loop is failed when its turn comes, not dispatched. No sweep runs
// here, so it is runOne's own check that has to catch it.
func TestQueuedJobPastTTLNeverStarts(t *testing.T) {
	f := newTestFactory()
	h := startHarness(t, t.TempDir(), f, 1, 1, 0, func(s *Service) { s.sweepEvery = time.Hour })
	defer h.api.Close()
	defer h.stopWorkers()

	slow, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "fanin", Procs: 3, Space: dexplore.Space{MixingBound: core.Unbounded}}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, h, slow.ID, 1)
	h.ahead.Store(int64(2 * time.Minute))

	got := waitJobTerminal(t, h.store, queued.ID)
	if got.State != Failed || got.Error != "ttl expired" || got.Attempts != 0 {
		t.Errorf("job queued past its TTL = %s (%q, attempts %d), want failed (ttl expired), never started", got.State, got.Error, got.Attempts)
	}
	if got := waitJobTerminal(t, h.store, slow.ID); got.State != Done {
		t.Errorf("the job it waited behind = %s (%q), want done", got.State, got.Error)
	}
	h.svc.Stop()
	<-h.runDone
}
