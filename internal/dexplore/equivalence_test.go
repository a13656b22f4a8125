package dexplore

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/sample"
	"dampi/mpi"
	"dampi/workloads/adlb"
	"dampi/workloads/iprobe"
	"dampi/workloads/matmul"
)

// memoRunner memoizes program executions by decision signature. Sharing one
// memoRunner between a serial explorer and parallel engines makes the
// program's residual scheduling non-determinism invisible (a decision prefix
// always yields the same trace), so the tests compare pure schedule-generator
// behavior: the serial DFS and the subtree-task decomposition must then cover
// the identical interleaving set, also under -race.
type memoRunner struct {
	mu   sync.Mutex
	runs map[string]*memoEntry
}

type memoEntry struct {
	trace *core.RunTrace
	res   *core.InterleavingResult
}

func newMemoRunner() *memoRunner { return &memoRunner{runs: make(map[string]*memoEntry)} }

// Run implements core.ExplorerConfig.Runner.
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
			ent = cached // keep-first: concurrent fillers agree on one execution
		} else {
			ent = &memoEntry{trace: trace, res: res}
			m.runs[key] = ent
		}
		m.mu.Unlock()
	}
	// Fresh result per caller: engines stamp Index and keep the reproducer.
	cp := *ent.res
	cp.Decisions = ent.res.Decisions.Clone()
	return ent.trace, &cp, nil
}

// summary is what an exploration covered, in scheduling-independent form.
type summary struct {
	sigs map[string]bool // decision signatures of every explored interleaving
	errs map[string]bool // "signature: message" of every failed interleaving
	rep  *core.Report
}

func summarize(t *testing.T, rep *core.Report, sigs map[string]bool) *summary {
	t.Helper()
	s := &summary{sigs: sigs, errs: map[string]bool{}, rep: rep}
	for _, e := range rep.Errors {
		s.errs[fmt.Sprintf("%s: %v", e.Decisions, e.Err)] = true
	}
	// Two sampled walks may resolve to one schedule; exhaustive tasks never do.
	if len(sigs) != rep.Interleavings && rep.Sampled == 0 {
		t.Fatalf("explored %d interleavings but %d distinct signatures", rep.Interleavings, len(sigs))
	}
	return s
}

func runSerial(t *testing.T, cfg core.ExplorerConfig) *summary {
	t.Helper()
	sigs := map[string]bool{}
	cfg.OnInterleaving = func(res *core.InterleavingResult) { sigs[res.Decisions.String()] = true }
	rep, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatalf("serial explore: %v", err)
	}
	return summarize(t, rep, sigs)
}

func runParallel(t *testing.T, cfg core.ExplorerConfig, workers int) *summary {
	t.Helper()
	return runShaped(t, cfg, shape{slots: workers, slice: -1})
}

// shape is how an engine cuts the frontier into leases. roots and slice go
// through the unexported seams: they change which slot replays what, never
// what the report says.
type shape struct {
	slots int
	roots int           // Engine.maxRoots; 0 = MaxLeaseRoots
	slice time.Duration // Engine.slice; negative = LeaseSlice
}

// runShaped explores cfg on an engine of the given shape.
func runShaped(t *testing.T, cfg core.ExplorerConfig, sh shape) *summary {
	t.Helper()
	sigs := map[string]bool{}
	cfg.OnInterleaving = func(res *core.InterleavingResult) { sigs[res.Decisions.String()] = true }
	e := New(Config{Explorer: cfg, Workers: sh.slots})
	if sh.roots > 0 {
		e.maxRoots = sh.roots
	}
	if sh.slice >= 0 {
		e.slice = sh.slice
	}
	rep, err := e.Explore()
	if err != nil {
		t.Fatalf("parallel explore (%+v): %v", sh, err)
	}
	return summarize(t, rep, sigs)
}

func checkEquivalent(t *testing.T, workers int, serial, parallel *summary) {
	t.Helper()
	if got, want := parallel.rep.Interleavings, serial.rep.Interleavings; got != want {
		t.Errorf("workers=%d: interleavings = %d, want %d", workers, got, want)
	}
	if got, want := parallel.rep.Deadlocks, serial.rep.Deadlocks; got != want {
		t.Errorf("workers=%d: deadlocks = %d, want %d", workers, got, want)
	}
	if got, want := parallel.rep.DecisionPoints, serial.rep.DecisionPoints; got != want {
		t.Errorf("workers=%d: decision points = %d, want %d", workers, got, want)
	}
	if got, want := parallel.rep.WildcardsAnalyzed, serial.rep.WildcardsAnalyzed; got != want {
		t.Errorf("workers=%d: wildcards analyzed = %d, want %d", workers, got, want)
	}
	if got, want := parallel.rep.AutoAbstracted, serial.rep.AutoAbstracted; got != want {
		t.Errorf("workers=%d: auto-abstracted = %d, want %d", workers, got, want)
	}
	if pr, sr := parallel.rep, serial.rep; pr.Sampled != sr.Sampled || !slices.Equal(pr.SampledSchedules, sr.SampledSchedules) {
		t.Errorf("workers=%d: sampled %d schedules %v, want %d %v", workers, pr.Sampled, pr.SampledSchedules, sr.Sampled, sr.SampledSchedules)
	}
	for sig := range serial.sigs {
		if !parallel.sigs[sig] {
			t.Errorf("workers=%d: interleaving %s missing from parallel run", workers, sig)
		}
	}
	for sig := range parallel.sigs {
		if !serial.sigs[sig] {
			t.Errorf("workers=%d: interleaving %s not covered by serial run", workers, sig)
		}
	}
	for e := range serial.errs {
		if !parallel.errs[e] {
			t.Errorf("workers=%d: error %q missing from parallel run", workers, e)
		}
	}
	for e := range parallel.errs {
		if !serial.errs[e] {
			t.Errorf("workers=%d: extra error %q in parallel run", workers, e)
		}
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

// flipDeadlock deadlocks on the flipped branch: if the wildcard receive
// consumes rank 1's only message, the second (specific) receive from rank 1
// can never match.
func flipDeadlock(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte("m"), c)
	}
	if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
		return err
	}
	_, _, err := p.Recv(1, 0, c)
	return err
}

// TestParallelSerialEquivalence is the engine's central contract: for each
// program and configuration, exploring with 2 and 4 workers covers exactly
// the interleaving set, errors and counts of the serial explorer.
func TestParallelSerialEquivalence(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.ExplorerConfig
	}{
		{"matmul-fig6", core.ExplorerConfig{Procs: 8, Program: matmul.Program(matmul.Config{})}},
		{"adlb-fig9-k1", core.ExplorerConfig{Procs: 4, MixingBound: 1, Program: adlb.Program(adlb.DriverConfig{})}},
		{"fan-in-error", core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: fanInError}},
		{"flip-deadlock", core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: flipDeadlock}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := newMemoRunner()
			tc.cfg.Runner = memo.Run
			serial := runSerial(t, tc.cfg)
			// A deadlocked initial self-run legitimately ends exploration
			// after one interleaving (nothing to expand); anything else with
			// fewer than two runs means a broken fixture.
			if serial.rep.Interleavings < 2 && serial.rep.Deadlocks == 0 {
				t.Fatalf("degenerate case: only %d interleavings", serial.rep.Interleavings)
			}
			for _, workers := range []int{2, 4} {
				checkEquivalent(t, workers, serial, runParallel(t, tc.cfg, workers))
			}
		})
	}
}

// TestLeaseShapeDoesNotChangeReport is internal/dcoord's test of the same
// name on the in-process engine: how the frontier is cut into leases — roots
// per lease, the time slice (0 = hand back after every replay), the number of
// slots — decides which slot replays what and nothing else. Every shape
// yields the serial report.
func TestLeaseShapeDoesNotChangeReport(t *testing.T) {
	cases := []struct {
		name string
		cfg  core.ExplorerConfig
	}{
		{"matmul-k1", core.ExplorerConfig{Procs: 5, MixingBound: 1, Program: matmul.Program(matmul.Config{})}},
		{"fan-in-error", core.ExplorerConfig{Procs: 5, MixingBound: core.Unbounded, Program: fanInError}},
		{"flip-deadlock", core.ExplorerConfig{Procs: 5, MixingBound: core.Unbounded, Program: flipDeadlock}},
		{"sampled", core.ExplorerConfig{Procs: 2, ChoicePoints: true, Program: iprobe.Program(iprobe.Config{}),
			Sampler: sample.New(sample.Config{Strategy: sample.Random, Samples: 24, Seed: 7, Procs: 2})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			memo := newMemoRunner()
			tc.cfg.Runner = memo.Run
			serial := runSerial(t, tc.cfg)
			switch {
			case tc.name == "flip-deadlock":
				// A self run that deadlocks at once (rank 1 matched first)
				// legitimately ends the exploration there.
				if serial.rep.Deadlocks == 0 {
					t.Fatal("degenerate fixture: the deadlock case found no deadlock")
				}
			case serial.rep.Interleavings < 3:
				t.Fatalf("degenerate fixture: %d interleavings", serial.rep.Interleavings)
			case tc.name == "sampled" && serial.rep.SampledDistinct == 0:
				t.Fatal("degenerate fixture: the sampled case sampled nothing")
			}
			for _, roots := range []int{1, 3, 0} {
				for _, slice := range []time.Duration{0, -1} {
					for _, slots := range []int{1, 3} {
						checkEquivalent(t, slots, serial, runShaped(t, tc.cfg, shape{slots: slots, roots: roots, slice: slice}))
					}
				}
			}
		})
	}
}

// TestEquivalenceFindsTheBug sanity-checks the error fixtures: the fan-in
// case must produce at least one failing interleaving and the deadlock case
// at least one deadlock, under both engines.
func TestEquivalenceFindsTheBug(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: fanInError, Runner: memo.Run}
	if s := runParallel(t, cfg, 4); len(s.errs) == 0 {
		t.Error("fan-in bug not found by parallel engine")
	}
	memo = newMemoRunner()
	cfg = core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: flipDeadlock, Runner: memo.Run}
	if s := runParallel(t, cfg, 4); s.rep.Deadlocks == 0 {
		t.Error("flip deadlock not found by parallel engine")
	}
}
