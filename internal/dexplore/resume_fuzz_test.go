package dexplore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
)

// FuzzResume: a checkpoint file is input the engine did not write this run —
// damaged, hand-edited, from another program. Whatever ReadCheckpoint makes of
// it, resuming a three-rank fan-in from it ends in an error or a report, never
// a panic or a hang; a report counts no more than the cap, nothing negative,
// and no failure the program cannot have.
func FuzzResume(f *testing.F) {
	fixtures, err := filepath.Glob("testdata/checkpoint_*.json")
	if err != nil || len(fixtures) == 0 {
		f.Fatalf("no checkpoint fixtures: %v", err)
	}
	for _, path := range fixtures {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	// A cut of this very exploration, so mutations start from one that loads.
	cfg := core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: fanInError}
	rep, err := core.NewExplorer(cfg).Explore()
	if err != nil {
		f.Fatal(err)
	}
	var b bytes.Buffer
	if err := NewCheckpoint("", &cfg, rep, []*core.SubtreeTask{core.RootTask(&cfg)}).Write(&b); err != nil {
		f.Fatal(err)
	}
	f.Add(b.Bytes())

	const capped = 64
	f.Fuzz(func(t *testing.T, body []byte) {
		ckp, err := ReadCheckpoint(bytes.NewReader(body))
		if err != nil {
			return
		}
		explorer := cfg
		explorer.MaxInterleavings = capped
		type out struct {
			rep *core.Report
			err error
		}
		done := make(chan out, 1)
		go func() {
			rep, err := New(Config{Explorer: explorer, Workers: 1, Resume: ckp}).Explore()
			done <- out{rep, err}
		}()
		select {
		case o := <-done:
			if o.err != nil {
				return
			}
			rep := o.rep
			if rep.Interleavings > max(capped, ckp.Interleavings) || min(rep.Interleavings, rep.Deadlocks, rep.DecisionPoints, rep.WildcardsAnalyzed) < 0 {
				t.Fatalf("resumed to %s from %s", rep.Summary(), body)
			}
			// The fan-in uses MPI correctly: a usage error is a replay the
			// checkpoint forced somewhere no run of it can go.
			for _, e := range rep.Errors {
				if strings.Contains(e.Err.Error(), "usage error") {
					t.Fatalf("resumed to a fabricated failure %v from %s", e.Err, body)
				}
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("resume hung on %s", body)
		}
	})
}
