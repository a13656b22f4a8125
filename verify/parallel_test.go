package verify_test

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dampi/verify"
	"dampi/workloads/matmul"
)

// TestWorkersFindsInjectedBug: the parallel engine behind Config.Workers
// finds the same bug as the serial path and reports a working reproducer.
func TestWorkersFindsInjectedBug(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 3, Workers: 4}, racyProgram)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Errored() || !errors.Is(res.Errors[0].Err, errInjected) {
		t.Fatalf("bug not found: %+v", res.Errors)
	}
	if res.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2", res.Interleavings)
	}
	rr, err := verify.Replay(3, racyProgram, res.Errors[0].Decisions)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rr.Err, errInjected) {
		t.Errorf("reproducer replayed to %v, want the injected bug", rr.Err)
	}
}

// TestWorkersMatchesSerialCounts: serial and parallel verification agree on
// the aggregate coverage counts (full set equality is proven in
// internal/dexplore with a memoized runner; counts are stable either way).
func TestWorkersMatchesSerialCounts(t *testing.T) {
	prog := matmul.Program(matmul.Config{})
	serial, err := verify.Run(verify.Config{Procs: 6}, prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		par, err := verify.Run(verify.Config{Procs: 6, Workers: workers}, prog)
		if err != nil {
			t.Fatal(err)
		}
		if par.Interleavings != serial.Interleavings {
			t.Errorf("workers=%d: interleavings = %d, serial %d", workers, par.Interleavings, serial.Interleavings)
		}
		if par.WildcardsAnalyzed != serial.WildcardsAnalyzed {
			t.Errorf("workers=%d: R* = %d, serial %d", workers, par.WildcardsAnalyzed, serial.WildcardsAnalyzed)
		}
		if par.Deadlocks != serial.Deadlocks || len(par.Errors) != len(serial.Errors) {
			t.Errorf("workers=%d: deadlocks/errors diverge from serial", workers)
		}
	}
}

// TestCheckpointResumeViaPublicAPI drives the full satellite workflow
// through verify.Config: cap-limited run with a checkpoint, then Resume
// finishes the remainder.
func TestCheckpointResumeViaPublicAPI(t *testing.T) {
	prog := matmul.Program(matmul.Config{})
	full, err := verify.Run(verify.Config{Procs: 6, Workers: 2}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if full.Interleavings <= 10 {
		t.Fatalf("fixture too small: %d interleavings", full.Interleavings)
	}

	path := filepath.Join(t.TempDir(), "ckp.json")
	part, err := verify.Run(verify.Config{
		Procs:            6,
		Workers:          2,
		MaxInterleavings: 10,
		CheckpointFile:   path,
		CheckpointEvery:  2,
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if part.Interleavings != 10 || !part.Capped {
		t.Fatalf("partial run: %d interleavings, capped=%v", part.Interleavings, part.Capped)
	}

	res, err := verify.Run(verify.Config{
		Procs:          6,
		Workers:        2,
		CheckpointFile: path,
		Resume:         true,
		CheckLeaks:     true, // must be skipped on resume, not crash
	}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interleavings != full.Interleavings {
		t.Errorf("resumed total = %d, uninterrupted %d", res.Interleavings, full.Interleavings)
	}
	if res.Leaks != nil {
		t.Error("leak report produced on resume (no canonical first run)")
	}
	if res.WildcardsAnalyzed != full.WildcardsAnalyzed {
		t.Errorf("resumed R* = %d, want %d", res.WildcardsAnalyzed, full.WildcardsAnalyzed)
	}
}

// TestResumeValidation: Resume demands a checkpoint file, and a checkpoint
// file — to resume from or only to write — the parallel engine: the serial
// explorer would silently never touch it.
func TestResumeValidation(t *testing.T) {
	prog := matmul.Program(matmul.Config{})
	for _, tc := range []struct {
		what string
		cfg  verify.Config
		want string // the field the error must name
	}{
		{"Resume without CheckpointFile", verify.Config{Procs: 4, Workers: 2, Resume: true}, "CheckpointFile"},
		{"Resume without Workers", verify.Config{Procs: 4, CheckpointFile: "x.json", Resume: true}, "Workers"},
		{"CheckpointFile without Workers", verify.Config{Procs: 4, CheckpointFile: filepath.Join(t.TempDir(), "x.json")}, "Workers"},
	} {
		if _, err := verify.Run(tc.cfg, prog); err == nil {
			t.Errorf("%s accepted", tc.what)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.what, err, tc.want)
		}
	}
}

// TestOnProgressViaPublicAPI: Config.OnProgress delivers throughput
// snapshots from the parallel engine.
func TestOnProgressViaPublicAPI(t *testing.T) {
	var mu sync.Mutex
	got := 0
	// Unbounded and capped: a run of tens of milliseconds, long enough for the
	// 1 ms ticker to fire on a loaded host (the k = 0 space is 64 replays, ~3 ms).
	_, err := verify.Run(verify.Config{
		Procs:            8,
		Workers:          2,
		MixingBound:      verify.Unbounded,
		MaxInterleavings: 1500,
		ProgressEvery:    time.Millisecond,
		OnProgress: func(p verify.Progress) {
			mu.Lock()
			got++
			mu.Unlock()
		},
	}, matmul.Program(matmul.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got == 0 {
		t.Error("no progress snapshots delivered")
	}
}
