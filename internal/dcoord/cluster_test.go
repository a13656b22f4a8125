package dcoord

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/mpi"
	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
)

// memoRunner memoizes program executions by decision signature, exactly as
// in the dexplore equivalence tests: sharing one memoRunner between the
// serial explorer and the cluster's workers makes the program's residual
// scheduling non-determinism invisible, so the tests compare pure
// schedule-generator behavior across the wire.
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

// errLines renders a report's failures in scheduling-independent sorted
// form: "signature: message", the acceptance criterion's "same sorted
// errors".
func errLines(rep *core.Report) []string {
	out := make([]string, 0, len(rep.Errors))
	for _, e := range rep.Errors {
		out = append(out, fmt.Sprintf("%s: %v", e.Decisions, e.Err))
	}
	sort.Strings(out)
	return out
}

func runSerial(t *testing.T, cfg core.ExplorerConfig) *core.Report {
	t.Helper()
	rep, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatalf("serial explore: %v", err)
	}
	return rep
}

// startCoordinator brings up a coordinator on an ephemeral localhost port.
// Each tweak runs between New and the listener: where a test varies the
// policy a Config has no field for.
func startCoordinator(t *testing.T, cfg Config, tweak ...func(*Coordinator)) (*Coordinator, string) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New coordinator: %v", err)
	}
	for _, f := range tweak {
		f(c)
	}
	ln, err := c.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return c, ln.Addr().String()
}

// shape is the cluster a test explores on. roots and slice go through the
// unexported seams: they change how the work is cut into leases, never what
// the report says.
type shape struct {
	workers, slots int
	roots          int           // Coordinator.maxRoots; 0 = dexplore.MaxLeaseRoots
	slice          time.Duration // Worker.slice; negative = dexplore.LeaseSlice
	max            int           // JobSpec.MaxInterleavings
}

// setMaxRoots shrinks the roots-per-lease bound of a served coordinator that
// no worker has joined yet.
func (c *Coordinator) setMaxRoots(n int) {
	c.mu.Lock()
	c.maxRoots = n
	c.mu.Unlock()
}

// redeliveries sets the redelivery cap (startCoordinator tweak).
func redeliveries(n int) func(*Coordinator) {
	return func(c *Coordinator) { c.maxRedeliveries = n }
}

// runCluster explores cfg with n in-process workers against a TCP
// coordinator and returns the merged report.
func runCluster(t *testing.T, workload string, cfg core.ExplorerConfig, n, slots int) *core.Report {
	t.Helper()
	rep, _ := runShaped(t, workload, cfg, shape{workers: n, slots: slots, slice: -1})
	return rep
}

// runShaped is runCluster on an explicit shape; it also returns the
// coordinator's final status.
func runShaped(t *testing.T, workload string, cfg core.ExplorerConfig, sh shape) (*core.Report, Status) {
	t.Helper()
	fp := FingerprintFor(workload, &cfg)
	fp.MaxInterleavings = sh.max
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second})
	if sh.roots > 0 {
		c.setMaxRoots(sh.roots)
	}
	var wg sync.WaitGroup
	var ws []*Worker
	for i := 0; i < sh.workers; i++ {
		w := NewWorker(WorkerConfig{
			Addr:        addr,
			Name:        fmt.Sprintf("w%d", i),
			Slots:       sh.slots,
			Fingerprint: fp,
			Explorer:    cfg,
		})
		if sh.slice >= 0 {
			w.slice = sh.slice
		}
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("cluster explore: %v", err)
	}
	// A memoized fixture can finish on the first worker before the second
	// has dialed; without the Stop it would redial a closed listener until
	// its dial budget ran out and fail the test for being late.
	for _, w := range ws {
		w.Stop()
	}
	wg.Wait()
	return rep, c.Status()
}

// waitFor waits for the coordinator with a hang guard.
func waitFor(t *testing.T, c *Coordinator) (*core.Report, error) {
	t.Helper()
	type out struct {
		rep *core.Report
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rep, err := c.Wait()
		ch <- out{rep, err}
	}()
	select {
	case o := <-ch:
		return o.rep, o.err
	case <-time.After(60 * time.Second):
		t.Fatalf("coordinator did not finish: %+v", c.Status())
		return nil, nil
	}
}

// checkSameReport asserts the distributed report matches the serial one on
// every scheduling-independent measure.
func checkSameReport(t *testing.T, label string, serial, dist *core.Report) {
	t.Helper()
	if got, want := dist.Interleavings, serial.Interleavings; got != want {
		t.Errorf("%s: interleavings = %d, want %d", label, got, want)
	}
	if got, want := dist.Deadlocks, serial.Deadlocks; got != want {
		t.Errorf("%s: deadlocks = %d, want %d", label, got, want)
	}
	if got, want := dist.DecisionPoints, serial.DecisionPoints; got != want {
		t.Errorf("%s: decision points = %d, want %d", label, got, want)
	}
	if got, want := dist.WildcardsAnalyzed, serial.WildcardsAnalyzed; got != want {
		t.Errorf("%s: wildcards analyzed = %d, want %d", label, got, want)
	}
	if got, want := dist.AutoAbstracted, serial.AutoAbstracted; got != want {
		t.Errorf("%s: auto-abstracted = %d, want %d", label, got, want)
	}
	if dist.Sampled != serial.Sampled || !slices.Equal(dist.SampledSchedules, serial.SampledSchedules) {
		t.Errorf("%s: sampled %d schedules %v, want %d %v", label, dist.Sampled, dist.SampledSchedules, serial.Sampled, serial.SampledSchedules)
	}
	se, de := errLines(serial), errLines(dist)
	if len(se) != len(de) {
		t.Errorf("%s: %d errors, want %d\n got: %v\nwant: %v", label, len(de), len(se), de, se)
	} else {
		for i := range se {
			if se[i] != de[i] {
				t.Errorf("%s: sorted error %d = %q, want %q", label, i, de[i], se[i])
			}
		}
	}
	// A result frame carries its reproducer only when it failed; the sorted
	// lines above compare signatures, this catches a failure that crossed
	// the wire without one on both sides of a degenerate comparison.
	for _, e := range dist.Errors {
		if e.Decisions.Empty() {
			t.Errorf("%s: failing interleaving #%d arrived without its reproducer: %v", label, e.Index, e.Err)
		}
	}
	if dist.FirstTrace == nil {
		t.Errorf("%s: distributed report lost the canonical first trace", label)
	}
}

// fanInError fails whenever rank 2's message wins the first wildcard match:
// an order-dependent bug only some interleavings expose.
func fanInError(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte{byte(p.Rank())}, c)
	}
	for i := 0; i < 2; i++ {
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

// TestDistributedSerialEquivalence is the acceptance contract: a coordinator
// with two local workers produces a report identical (same interleaving
// count, same sorted errors, same aggregate measures) to the single-process
// serial run, on the matmul and ADLB workloads plus an error fixture.
func TestDistributedSerialEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.ExplorerConfig
	}{
		{"matmul-fig6", core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{})}},
		{"adlb-fig9-k1", core.ExplorerConfig{Procs: 4, MixingBound: 1, Program: adlb.Program(adlb.DriverConfig{})}},
		{"fan-in-error", core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: fanInError}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := newMemoRunner()
			tc.cfg.Runner = memo.Run
			serial := runSerial(t, tc.cfg)
			if serial.Interleavings < 2 {
				t.Fatalf("degenerate fixture: %d interleavings", serial.Interleavings)
			}
			if tc.name == "fan-in-error" && len(serial.Errors) == 0 {
				t.Fatal("degenerate fixture: the error case found no error")
			}
			dist := runCluster(t, "eq-"+tc.name, tc.cfg, 2, 2)
			checkSameReport(t, tc.name, serial, dist)
		})
	}
}

// drop closes the named worker's connection from the server's side: what the
// coordinator sees when that worker's process dies.
func (s *Server) drop(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for w := range s.pool {
		if w.name == name {
			w.conn.Close()
		}
	}
}

// killAfter wraps a Runner so the worker crashes after n completed replays:
// mid-lease, its connection is closed by the server, so nothing it sends
// afterwards is read, and then it is stopped, so it does not redial.
type killAfter struct {
	inner  func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error)
	mu     sync.Mutex
	n      int
	srv    *Server
	w      *Worker
	killed chan struct{} // closed when the worker is killed
}

func (k *killAfter) Run(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	k.mu.Lock()
	k.n--
	first := k.n == -1
	k.mu.Unlock()
	if first {
		k.srv.drop(k.w.cfg.Name)
		k.w.Stop()
		close(k.killed)
	}
	return k.inner(cfg, d)
}

// TestWorkerKillMidExplorationRecovers: killing one worker mid-exploration
// re-leases its tasks to the survivor and still yields the identical report.
func TestWorkerKillMidExplorationRecovers(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, base)
	if serial.Interleavings < 8 {
		t.Fatalf("fixture too small to kill a worker mid-run: %d interleavings", serial.Interleavings)
	}

	fp := FingerprintFor("kill-matmul", &base)
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: time.Second}, redeliveries(5))

	// Victim: dies after 3 replays, mid-lease.
	victimCfg := base
	k := &killAfter{inner: memo.Run, n: 3, srv: c.srv, killed: make(chan struct{})}
	victimCfg.Runner = k.Run
	victim := NewWorker(WorkerConfig{Addr: addr, Name: "victim", Slots: 2, Fingerprint: fp, Explorer: victimCfg})
	k.w = victim

	survivor := NewWorker(WorkerConfig{Addr: addr, Name: "survivor", Slots: 2, Fingerprint: fp, Explorer: base})

	var wg sync.WaitGroup
	run := func(w *Worker) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	// The survivor joins once the victim is dead: memoized replays are nearly
	// free, and a survivor racing from the start finished the whole job
	// before the victim's fourth replay in one run out of ten.
	run(victim)
	select {
	case <-k.killed:
	case <-time.After(30 * time.Second):
		t.Fatal("the victim was never leased a fourth task")
	}
	run(survivor)
	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("cluster explore after kill: %v", err)
	}
	wg.Wait()
	checkSameReport(t, "kill-recovery", serial, rep)
	if st := c.Status(); st.Requeues == 0 {
		t.Error("killing a leased worker recorded no requeues")
	}
}

// TestClusterStopDrainsAndCheckpoints: a graceful Stop (the SIGTERM path)
// stops issuing, merges in-flight results, and leaves a checkpoint that a
// fresh coordinator resumes to the full serial report.
func TestClusterStopDrainsAndCheckpoints(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, base)

	fp := FingerprintFor("drain-matmul", &base)
	ckpPath := t.TempDir() + "/ckp.json"
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, CheckpointPath: ckpPath})

	// Gate the worker after a few replays so Stop fires while work remains:
	// the root lease has merged, and the fourth replay parks inside the lease
	// after it — what that lease ran and what it hands back must both survive.
	gate, parked := make(chan struct{}), make(chan struct{})
	ran := 0
	var mu sync.Mutex
	gcfg := base
	gcfg.Runner = func(cfg *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		mu.Lock()
		ran++
		n := ran
		mu.Unlock()
		if n == 4 {
			close(parked)
			<-gate
		}
		return memo.Run(cfg, d)
	}
	w := NewWorker(WorkerConfig{Addr: addr, Name: "w0", Slots: 1, Fingerprint: fp, Explorer: gcfg})
	w.slice = time.Hour // a loaded host must not end the second lease before run #4
	done := make(chan error, 1)
	go func() { done <- w.Run() }()

	// Drain while run #4 is parked.
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatalf("no progress: %+v", c.Status())
	}
	if st := c.Status(); st.Interleavings != 1 || st.ActiveLeases != 1 {
		t.Fatalf("parked mid-lease with %d replays merged and %d leases held, want the root's 1 and 1", st.Interleavings, st.ActiveLeases)
	}
	c.Stop()
	close(gate)
	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker after drain: %v", err)
	}
	if rep.Interleavings < 4 || rep.Interleavings >= serial.Interleavings {
		t.Fatalf("drain merged %d interleavings, expected the held lease's and a partial run (4 <= n < %d)", rep.Interleavings, serial.Interleavings)
	}

	// Resume from the drain checkpoint; the union must equal the serial run.
	ckp, err := dexplore.LoadCheckpoint(ckpPath)
	if err != nil {
		t.Fatalf("loading drain checkpoint: %v", err)
	}
	c2, addr2 := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, Resume: ckp})
	w2 := NewWorker(WorkerConfig{Addr: addr2, Name: "w1", Slots: 2, Fingerprint: fp, Explorer: base})
	done2 := make(chan error, 1)
	go func() { done2 <- w2.Run() }()
	rep2, err := waitFor(t, c2)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("worker after resume: %v", err)
	}
	checkSameReport(t, "drain+resume", serial, rep2)
}

// TestClusterResumesLocalCheckpoint: the checkpoint format is one format. A
// frontier written by the in-process lease engine at its
// interleaving cap resumes under a coordinator, and the two partial runs
// together produce the serial report.
func TestClusterResumesLocalCheckpoint(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, base)

	ckpPath := t.TempDir() + "/ckp.json"
	capped := base
	capped.MaxInterleavings = 15
	part, err := dexplore.New(dexplore.Config{Explorer: capped, Workers: 2, CheckpointPath: ckpPath}).Explore()
	if err != nil {
		t.Fatalf("local run: %v", err)
	}
	if !part.Capped || part.Interleavings >= serial.Interleavings {
		t.Fatalf("local run was not partial: %d of %d interleavings, capped=%v",
			part.Interleavings, serial.Interleavings, part.Capped)
	}
	ckp, err := dexplore.LoadCheckpoint(ckpPath)
	if err != nil {
		t.Fatalf("loading local checkpoint: %v", err)
	}

	fp := FingerprintFor("resume-matmul", &base)
	c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, Resume: ckp})
	w := NewWorker(WorkerConfig{Addr: addr, Name: "w0", Slots: 2, Fingerprint: fp, Explorer: base})
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("worker after resume: %v", err)
	}
	checkSameReport(t, "local+cluster", serial, rep)
}
