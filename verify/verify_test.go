package verify_test

import (
	"errors"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
)

var errInjected = errors.New("injected bug")

func racyProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		return p.Send(1, 0, mpi.EncodeInt64(1), c)
	case 2:
		return p.Send(1, 0, mpi.EncodeInt64(2), c)
	case 1:
		data, _, err := p.Recv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if mpi.DecodeInt64(data)[0] == 2 {
			return errInjected
		}
	}
	return nil
}

func TestRunFindsInjectedBug(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 3}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Errored() || !errors.Is(res.Errors[0].Err, errInjected) {
		t.Fatalf("bug not found: %+v", res.Errors)
	}
	if res.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2", res.Interleavings)
	}
	if res.Summary() == "" {
		t.Error("empty summary")
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := verify.Run(verify.Config{Procs: 0}, racyProgram); err == nil {
		t.Error("Procs=0 accepted")
	}
	if _, err := verify.Run(verify.Config{Procs: 2}, nil); err == nil {
		t.Error("nil program accepted")
	}
}

func TestRunMatmulFullCoverage(t *testing.T) {
	res, err := verify.Run(verify.Config{
		Procs:            3,
		MixingBound:      verify.Unbounded,
		CheckLeaks:       true,
		CollectStats:     true,
		MaxInterleavings: 100,
	}, matmul.Program(matmul.Config{}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errored() {
		t.Fatalf("matmul failed verification: %v (%v)", res.Errors[0], res.Errors[0].Err)
	}
	if res.WildcardsAnalyzed != 4 { // Rows = 2*(procs-1)
		t.Errorf("R* = %d, want 4", res.WildcardsAnalyzed)
	}
	if res.Leaks.HasCommLeak() || res.Leaks.HasRequestLeak() {
		t.Errorf("unexpected leaks: %v", res.Leaks)
	}
	if res.Stats.Totals().All == 0 {
		t.Error("no ops recorded")
	}
	if res.Interleavings < 2 {
		t.Errorf("interleavings = %d, want > 1", res.Interleavings)
	}
}

// TestMixingBoundZeroValueIsKZero pins the trap the Config doc warns about:
// leaving MixingBound unset is k=0 (10 interleavings of matmul at 4 ranks),
// not full coverage (162).
func TestMixingBoundZeroValueIsKZero(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 4}, matmul.Program(matmul.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Interleavings != 10 {
		t.Fatalf("zero-value MixingBound explored %d interleavings, want the k=0 count 10", res.Interleavings)
	}
}

func TestLoopMarkersSuppressExploration(t *testing.T) {
	marked := matmul.Program(matmul.Config{MarkLoop: true})
	res, err := verify.Run(verify.Config{Procs: 4, MixingBound: verify.Unbounded}, marked)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Interleavings != 1 {
		t.Errorf("interleavings = %d, want 1 under loop abstraction", res.Interleavings)
	}
	if res.Errored() {
		t.Errorf("errors: %v", res.Errors)
	}
}

func TestMarkLoopHelpersOutsideVerifier(t *testing.T) {
	// The markers are plain Pcontrol calls: harmless without a verifier.
	w := mpi.NewWorld(mpi.Config{Procs: 1})
	err := w.Run(func(p *mpi.Proc) error {
		verify.MarkLoopBegin(p)
		verify.MarkLoopEnd(p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestVectorClockMode(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 3, Clock: verify.VectorClock}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Errored() {
		t.Fatal("vector mode missed the bug")
	}
}

func TestOnInterleavingCallback(t *testing.T) {
	var seen int
	_, err := verify.Run(verify.Config{
		Procs:          3,
		OnInterleaving: func(res *verify.InterleavingResult) { seen++ },
	}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seen != 2 {
		t.Errorf("callback fired %d times, want 2", seen)
	}
}

func TestArtifactsDir(t *testing.T) {
	dir := t.TempDir()
	res, err := verify.Run(verify.Config{Procs: 3, ArtifactsDir: dir}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Errored() {
		t.Fatal("setup: bug not found")
	}
	// The trace artifact exists and parses.
	trace, err := verify.LoadTrace(filepath.Join(dir, "potential_matches.json"))
	if err != nil {
		t.Fatalf("trace artifact: %v", err)
	}
	if len(trace.Epochs) == 0 {
		t.Error("empty trace artifact")
	}
	// The reproducer artifact replays the bug.
	d, err := verify.LoadDecisions(filepath.Join(dir, "error_0.decisions.json"))
	if err != nil {
		t.Fatalf("decisions artifact: %v", err)
	}
	replay, err := verify.Replay(3, racyProgram, d)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !errors.Is(replay.Err, errInjected) {
		t.Fatalf("artifact replay diverged: %v", replay.Err)
	}
}

func TestDualClockAndInbandViaPublicAPI(t *testing.T) {
	// The §V dual-clock extension and the in-band transport compose.
	res, err := verify.Run(verify.Config{
		Procs:     3,
		DualClock: true,
		Transport: verify.Inband,
	}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Errored() || !errors.Is(res.Errors[0].Err, errInjected) {
		t.Fatalf("bug not found under dual+inband: %+v", res.Errors)
	}
	if res.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2", res.Interleavings)
	}
}

func TestAutoLoopThresholdViaPublicAPI(t *testing.T) {
	// Repeating same-signature fan-in rounds get auto-abstracted.
	prog := func(p *mpi.Proc) error {
		c := p.CommWorld()
		for r := 0; r < 5; r++ {
			if p.Rank() == 0 {
				for i := 1; i < 3; i++ {
					if _, _, err := p.Recv(mpi.AnySource, 4, c); err != nil {
						return err
					}
				}
			} else if err := p.Send(0, 4, nil, c); err != nil {
				return err
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
		}
		return nil
	}
	full, err := verify.Run(verify.Config{Procs: 3, MaxInterleavings: 2000}, prog)
	if err != nil {
		t.Fatal(err)
	}
	auto, err := verify.Run(verify.Config{Procs: 3, AutoLoopThreshold: 2, MaxInterleavings: 2000}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if auto.Interleavings >= full.Interleavings {
		t.Errorf("auto loop detection did not help: %d vs %d", auto.Interleavings, full.Interleavings)
	}
	if auto.AutoAbstracted == 0 {
		t.Error("AutoAbstracted = 0")
	}
}

// TestCoverageIsRepeatable: a replay is a function of (program, decisions),
// so an exploration is a function of the program — the same interleavings, in
// the same order, however many Ps the Go runtime has. ADLB is the workload
// whose uncapped count used to differ from run to run (3 398 / 3 576 / 3 728
// in three runs before the world scheduler).
func TestCoverageIsRepeatable(t *testing.T) {
	explore := func() (*verify.Result, []string) {
		var keys []string
		res, err := verify.Run(verify.Config{
			Procs: 8, MixingBound: 1,
			OnInterleaving: func(r *verify.InterleavingResult) { keys = append(keys, r.Decisions.String()) },
		}, adlb.Program(adlb.DriverConfig{}))
		if err != nil {
			t.Fatal(err)
		}
		if res.Errored() || res.Capped {
			t.Fatalf("ADLB p=8 k=1: %s", res.Summary())
		}
		return res, keys
	}
	want, wantKeys := explore()
	for i := 0; i < 2; i++ {
		if i == 1 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		}
		got, keys := explore()
		if got.Interleavings != want.Interleavings || got.DecisionPoints != want.DecisionPoints {
			t.Fatalf("run %d: %d interleavings, %d decision points; the first run had %d and %d",
				i+2, got.Interleavings, got.DecisionPoints, want.Interleavings, want.DecisionPoints)
		}
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("run %d: same counts, different decision keys or order", i+2)
		}
	}
}
