package dexplore

import (
	"path/filepath"
	"testing"

	"dampi/internal/core"
	"dampi/workloads/matmul"
)

// TestLastLeaseOnlyCountsChildren: the lease that is the only grant out and
// holds all the room the cap has left — under MaxInterleavings 1, the root's
// own — builds no children. It counts them, so the report is capped and its
// decision points are the serial explorer's. A checkpointing run builds them
// anyway: a resume continues from its frontier, and finishes the space.
func TestLastLeaseOnlyCountsChildren(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	full, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxInterleavings = 1
	serial, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2} {
		e := New(Config{Explorer: cfg, Workers: workers})
		rep, err := e.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Interleavings != 1 || !rep.Capped || rep.DecisionPoints != serial.DecisionPoints {
			t.Errorf("workers=%d: %d interleavings, capped=%v, %d decision points; want 1, true, %d",
				workers, rep.Interleavings, rep.Capped, rep.DecisionPoints, serial.DecisionPoints)
		}

		path := filepath.Join(t.TempDir(), "ckp.json")
		ce := New(Config{Explorer: cfg, Workers: workers, CheckpointPath: path})
		if _, err := ce.Explore(); err != nil {
			t.Fatal(err)
		}
		if built := len(ce.front.Tasks); len(e.front.Tasks) != 0 || e.unbuilt != built || built == 0 || ce.unbuilt != 0 {
			t.Errorf("workers=%d: the root's children: %d built and %d counted, %d built when checkpointing; want 0 built, all counted",
				workers, len(e.front.Tasks), e.unbuilt, built)
		}
		ckp, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		rcfg := cfg
		rcfg.MaxInterleavings = 0
		res, err := New(Config{Explorer: rcfg, Workers: workers, Resume: ckp}).Explore()
		if err != nil {
			t.Fatal(err)
		}
		if res.Interleavings != full.Interleavings {
			t.Errorf("workers=%d: resumed from the capped checkpoint to %d interleavings, want %d", workers, res.Interleavings, full.Interleavings)
		}
	}
}
