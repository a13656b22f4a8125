package dcoord

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/race"
	"dampi/mpi"
	"dampi/workloads/matmul"
)

// fanInTrap fails on two of the orders in which rank 0 can take the fan-in
// of ranks 1..3: a first match from rank 2 is a rank error, and one from
// rank 3 leaves rank 0 waiting for a second message rank 3 never sends.
func fanInTrap(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte{byte(p.Rank())}, c)
	}
	_, st, err := p.Recv(mpi.AnySource, 0, c)
	if err != nil {
		return err
	}
	switch st.Source {
	case 3:
		_, _, err = p.Recv(3, 0, c)
		return err
	case 2:
		return fmt.Errorf("fan-in: rank 2 arrived first")
	}
	for i := 0; i < p.Size()-2; i++ {
		if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
			return err
		}
	}
	return nil
}

// procLog is an any-workload factory over matmul and fanInTrap that records,
// per spec key, the rank Procs its jobs ran on. A world on carried mpi.Pools
// runs on the Procs of the skeleton the previous world parked, so two jobs
// that ran on one Proc ran on one RunContext, and a job that shares none
// with any earlier job ran on a context of its own.
type procLog struct {
	mu    sync.Mutex
	procs map[string]map[*mpi.Proc]bool
}

func newProcLog() *procLog { return &procLog{procs: make(map[string]map[*mpi.Proc]bool)} }

func (l *procLog) factory(spec JobSpec) (core.ExplorerConfig, error) {
	cfg := spec.ExplorerConfig()
	var program func(*mpi.Proc) error
	switch spec.Workload {
	case "matmul":
		program = matmul.Program(matmul.Config{})
	case "fanin-trap":
		program = fanInTrap
	default:
		return core.ExplorerConfig{}, fmt.Errorf("unknown test workload %q", spec.Workload)
	}
	key := spec.Key()
	cfg.Program = func(p *mpi.Proc) error {
		l.mu.Lock()
		if l.procs[key] == nil {
			l.procs[key] = make(map[*mpi.Proc]bool)
		}
		l.procs[key][p] = true
		l.mu.Unlock()
		return program(p)
	}
	return cfg, nil
}

// shared reports whether the jobs of specs a and b ran on a common Proc.
func (l *procLog) shared(a, b *JobSpec) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for p := range l.procs[a.Key()] {
		if l.procs[b.Key()][p] {
			return true
		}
	}
	return false
}

// runOnFreshWorker runs spec as the only job of a new server and a new
// one-slot worker.
func runOnFreshWorker(t *testing.T, spec JobSpec) *core.Report {
	t.Helper()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()
	stop := joinAnyWorkers(t, addr, newProcLog().factory, 1, 1)
	defer stop()
	waitForPool(t, s, 1)
	rep, err := runJob(t, s, Config{Fingerprint: spec, JobID: "fresh"})
	if err != nil {
		t.Fatalf("fresh worker: %v", err)
	}
	return rep
}

// TestSlotKeepsItsContextAcrossJobs: one one-slot worker runs five jobs in
// order — matmul; a fan-in of the same shape that fails, with rank errors and
// a deadlock; the matmul again under another cap; a sampled job; a job of
// another world size and clock — and each report equals what a fresh worker
// reports for that spec. The matmul's second run and the fan-in ran on the
// context the first matmul built; the sampled job (choice points on) and the
// last job each on a new one.
func TestSlotKeepsItsContextAcrossJobs(t *testing.T) {
	a := JobSpec{Workload: "matmul", Procs: 4, Space: dexplore.Space{MixingBound: 1}}
	b := JobSpec{Workload: "fanin-trap", Procs: 4, Space: dexplore.Space{MixingBound: core.Unbounded}}
	c := a
	c.MaxInterleavings = 1 << 20
	d := JobSpec{Workload: "matmul", Procs: 4, Space: dexplore.Space{
		ChoicePoints: true, SampleStrategy: "random", Samples: 12, SampleSeed: 7, SampleDepth: 1,
	}}
	e := JobSpec{Workload: "matmul", Procs: 6, Space: dexplore.Space{Clock: core.VectorClock}}
	jobs := []struct {
		name string
		spec *JobSpec
	}{{"a", &a}, {"b", &b}, {"c", &c}, {"d", &d}, {"e", &e}}

	log := newProcLog()
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()
	stop := joinAnyWorkers(t, addr, log.factory, 1, 1)
	defer stop()
	waitForPool(t, s, 1)

	for _, j := range jobs {
		kept, err := runJob(t, s, Config{Fingerprint: *j.spec, JobID: j.name})
		if err != nil {
			t.Fatalf("job %s: %v", j.name, err)
		}
		fresh := runOnFreshWorker(t, *j.spec)
		checkSameReport(t, "job "+j.name, fresh, kept)
		if kept.Interleavings < 2 {
			t.Errorf("job %s: degenerate fixture, %d interleavings", j.name, kept.Interleavings)
		}
	}
	if len(s.Workers()) != 1 {
		t.Fatalf("the pool holds %d workers, want the one that ran every job", len(s.Workers()))
	}
	for _, j := range jobs[1:3] {
		if !log.shared(&a, j.spec) {
			t.Errorf("job %s did not run on the context job a built", j.name)
		}
	}
	for _, pair := range [][2]int{{0, 3}, {0, 4}, {3, 4}} {
		x, y := jobs[pair[0]], jobs[pair[1]]
		if log.shared(x.spec, y.spec) {
			t.Errorf("jobs %s and %s, of different shapes, ran on one context", x.name, y.name)
		}
	}
}

// TestWarmJobAllocBudget: on a one-slot worker that has run one matmul p=8
// k=0 job, each further identical job runs on the slot's kept RunContext —
// its request slabs, world skeleton and Tool — so it allocates only what the
// job itself keeps: frames, leases, the report, reproducers. Bytes per
// replay, server and worker in one process, over loopback: 8 993–9 053
// measured with go1.24 at GOMAXPROCS 1 and 2, where a slot that builds a new
// context per job reads 10 550–10 590. Skipped under -race, which allocates
// on its own.
func TestWarmJobAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	const budget = 9800 // bytes per replay
	spec := JobSpec{Workload: "matmul", Procs: 8, Space: dexplore.Space{MixingBound: 0}}
	s, addr := startServer(t, ServerConfig{})
	defer s.Close()
	stop := joinAnyWorkers(t, addr, newProcLog().factory, 1, 1)
	defer stop()
	waitForPool(t, s, 1)

	run := func(i int) int {
		rep, err := runJob(t, s, Config{Fingerprint: spec, JobID: fmt.Sprintf("j%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Interleavings
	}
	run(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	replays := 0
	const jobs = 10
	for i := 1; i <= jobs; i++ {
		replays += run(i)
	}
	runtime.ReadMemStats(&after)
	perReplay := float64(after.TotalAlloc-before.TotalAlloc) / float64(replays)
	t.Logf("%d warm jobs, %d replays: %.0f bytes per replay", jobs, replays, perReplay)
	if perReplay > budget {
		t.Errorf("a warm job allocates %.0f bytes per replay, budget %d", perReplay, budget)
	}
}
