package verify_test

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dampi/mpi"
	"dampi/verify"
	"dampi/workloads/matmul"
)

// TestWorkersFindsInjectedBug: four slots find the same bug as the default
// one and report a working reproducer.
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

// TestWorkersMatchesSerialCounts: the default one slot and every larger pool
// agree on the aggregate coverage counts (full set equality is proven in
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

// TestResumeValidation: Resume demands a checkpoint file, and a default
// (one-slot) run both writes one and resumes from it: killed mid-run — here
// by a panic out of OnInterleaving, which runs on the caller's goroutine — it
// leaves its last periodic cut on disk, and resuming from that ends with the
// uninterrupted run's totals.
func TestResumeValidation(t *testing.T) {
	prog := matmul.Program(matmul.Config{})
	if _, err := verify.Run(verify.Config{Procs: 4, Resume: true}, prog); err == nil {
		t.Error("Resume without CheckpointFile accepted")
	} else if !strings.Contains(err.Error(), "CheckpointFile") {
		t.Errorf("Resume without CheckpointFile: error %q does not name CheckpointFile", err)
	}

	full, err := verify.Run(verify.Config{Procs: 6}, prog)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ckp.json")
	killAt := full.Interleavings / 2
	func() {
		defer func() {
			if r := recover(); r != errKilled {
				t.Fatalf("run was not killed at interleaving %d (recovered %v)", killAt, r)
			}
		}()
		verify.Run(verify.Config{
			Procs:           6,
			CheckpointFile:  path,
			CheckpointEvery: 2,
			OnInterleaving: func(res *verify.InterleavingResult) {
				if res.Index == killAt {
					panic(errKilled)
				}
			},
		}, prog)
	}()

	res, err := verify.Run(verify.Config{Procs: 6, CheckpointFile: path, Resume: true}, prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interleavings != full.Interleavings {
		t.Errorf("resumed total = %d, uninterrupted %d", res.Interleavings, full.Interleavings)
	}
	if res.WildcardsAnalyzed != full.WildcardsAnalyzed {
		t.Errorf("resumed R* = %d, want %d", res.WildcardsAnalyzed, full.WildcardsAnalyzed)
	}
}

var errKilled = errors.New("killed")

// relayed fails on every interleaving. Rank 3's message reaches rank 0's
// first wildcard receive before rank 2's, which waits on rank 3 too, so the
// self run's reproducer sorts after its flip's: discovery order is not
// reproducer order.
func relayed(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 3:
		if err := p.Send(0, 0, []byte{3}, c); err != nil {
			return err
		}
		return p.Send(2, 0, []byte{3}, c)
	case 2:
		if _, _, err := p.Recv(3, 0, c); err != nil {
			return err
		}
		return p.Send(0, 0, []byte{2}, c)
	case 0:
		for i := 0; i < 2; i++ {
			if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
				return err
			}
		}
		return errInjected
	}
	return nil
}

// TestWorkersZeroIsOneSlot: Workers 0 and 1 are the same one-slot engine —
// the same interleavings observed in the same order, the same report, errors
// in discovery order — uncapped, capped and stopped at the first error.
func TestWorkersZeroIsOneSlot(t *testing.T) {
	run := func(cfg verify.Config) (observed []string, rep string) {
		cfg.OnInterleaving = func(res *verify.InterleavingResult) {
			observed = append(observed, fmt.Sprintf("#%d %v", res.Index, res.Decisions))
		}
		res, err := verify.Run(cfg, relayed)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		res.WriteHead(&b, res.Summary(), 0)
		res.WriteErrors(&b)
		fmt.Fprintf(&b, "decision points %d\n", res.DecisionPoints)
		for i, e := range res.Errors {
			if e.Index != i {
				t.Errorf("%+v: error #%d listed %d: not discovery order", cfg, e.Index, i)
			}
		}
		return observed, b.String()
	}
	for _, cfg := range []verify.Config{
		{Procs: 4},
		{Procs: 4, MaxInterleavings: 1},
		{Procs: 4, StopOnFirstError: true},
	} {
		zeroSeen, zero := run(cfg)
		cfg.Workers = 1
		oneSeen, one := run(cfg)
		if !slices.Equal(zeroSeen, oneSeen) || zero != one {
			t.Errorf("%+v:\nWorkers 0 observed %v and reported\n%s\nWorkers 1 observed %v and reported\n%s", cfg, zeroSeen, zero, oneSeen, one)
		}
	}
}

// TestOnProgressViaPublicAPI: Config.OnProgress delivers throughput
// snapshots.
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
