package dexplore

import (
	"bytes"
	"math"
	"path/filepath"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/workloads/matmul"
)

// cutOf is a checkpoint that says how many replays it has seen, and no more.
func cutOf(n int) *Checkpoint {
	return &Checkpoint{Version: checkpointVersion, Report: core.Report{Interleavings: n}}
}

// TestCheckpointCadence pins the due test: an explicit count falls due on
// merged replays and bounds an engine's lease; the default falls due on the
// clock, counted from Begin, and bounds nothing; either way never while a cut
// is out. A writer writes nothing after Close, and an engine without a path
// bounds no lease.
func TestCheckpointCadence(t *testing.T) {
	t0 := time.Now()
	byCount := NewCadence(3)
	byCount.Begin(t0)
	if byCount.Due(2, t0) || !byCount.Due(1, t0) {
		t.Error("count cadence: want due at the third merged replay, not before")
	}
	if byCount.Due(5, t0) {
		t.Error("count cadence: due again while the cut is out")
	}
	byCount.Saved()
	if !byCount.Due(0, t0) {
		t.Error("count cadence: the replays merged while the cut was out were not counted")
	}

	byClock := NewCadence(0)
	if byClock.Every != 0 || byClock.Interval != DefaultCheckpointInterval {
		t.Errorf("default cadence: every %d / %v, want the interval alone", byClock.Every, byClock.Interval)
	}
	byClock.Begin(t0)
	if byClock.Due(1_000_000, t0.Add(DefaultCheckpointInterval-1)) {
		t.Error("default cadence: due by count")
	}
	if !byClock.Due(0, t0.Add(DefaultCheckpointInterval)) {
		t.Error("default cadence: not due an interval after Begin")
	}
	byClock.Saved()
	if byClock.Due(1_000_000, t0.Add(2*DefaultCheckpointInterval-1)) {
		t.Error("default cadence: due again within an interval of the last cut")
	}

	path := filepath.Join(t.TempDir(), "ckp.json")
	cfg := core.ExplorerConfig{Procs: 2, Program: fanInError}
	for _, tc := range []struct {
		path  string
		every int
		want  int
	}{{path, 3, 3}, {path, 0, math.MaxInt}, {"", 3, math.MaxInt}} {
		if got := New(Config{Explorer: cfg, CheckpointPath: tc.path, CheckpointEvery: tc.every}).leaseCap(); got != tc.want {
			t.Errorf("path %q every %d: lease cap %d, want %d", tc.path, tc.every, got, tc.want)
		}
	}

	w := NewCheckpointWriter(path)
	w.Periodic(cutOf(3))
	w.Close()
	w.Periodic(cutOf(11))
	if ckp, err := LoadCheckpoint(path); err != nil || ckp.Interleavings != 3 || w.Written() != 1 {
		t.Errorf("after Close the file holds %+v (err %v) after %d writes, want the cut at 3 alone", ckp, err, w.Written())
	}
}

// TestFinalWaitsForThePeriodicWrite: a periodic write still out when the
// exploration ends lands before the final checkpoint, never on top of it,
// and Close alone leaves nothing in flight to bring a removed file back.
func TestFinalWaitsForThePeriodicWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckp.json")
	w := NewCheckpointWriter(path)
	entered, release := make(chan struct{}), make(chan struct{})
	w.Save = func(c *Checkpoint, p string) error {
		if c.Interleavings == 1 { // the periodic cut: held open
			close(entered)
			<-release
		}
		return c.Save(p)
	}
	periodic := make(chan struct{})
	go func() {
		defer close(periodic)
		w.Periodic(cutOf(1))
	}()
	<-entered
	final := make(chan error, 1)
	go func() { final <- w.Final(cutOf(2)) }()
	select {
	case err := <-final:
		t.Fatalf("Final returned (%v) while the periodic write was out", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-periodic
	if err := <-final; err != nil {
		t.Fatal(err)
	}
	ckp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ckp.Interleavings != 2 {
		t.Errorf("the file holds the cut at %d replays, want the final one at 2", ckp.Interleavings)
	}
}

// slowed stretches every replay of cfg by d.
func slowed(cfg core.ExplorerConfig, d time.Duration) core.ExplorerConfig {
	run := cfg.Runner
	cfg.Runner = func(c *core.ExplorerConfig, dec *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		time.Sleep(d)
		return run(c, dec)
	}
	return cfg
}

// TestDefaultCadenceFollowsTheClock: without a CheckpointEvery an engine
// writes by the clock — a run shorter than the interval only its final
// checkpoint, a run several intervals long about one file per interval —
// and no lease is cut short for it.
func TestDefaultCadenceFollowsTheClock(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	path := filepath.Join(t.TempDir(), "ckp.json")

	short := New(Config{Explorer: cfg, Workers: 2, CheckpointPath: path})
	if short.cad.Every != 0 || short.cad.Interval != DefaultCheckpointInterval {
		t.Fatalf("default cadence is every %d / %v, want the interval alone", short.cad.Every, short.cad.Interval)
	}
	short.cad.Interval = time.Hour // shorter than the interval on any host
	rep, err := short.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if n := short.ckp.Written(); n != 1 {
		t.Errorf("a run shorter than the interval wrote %d files, want the final one alone", n)
	}
	if ckp, err := LoadCheckpoint(path); err != nil || ckp.Interleavings != rep.Interleavings || len(ckp.Frontier) != 0 {
		t.Errorf("final checkpoint = %+v (err %v), want %d interleavings and no frontier", ckp, err, rep.Interleavings)
	}

	const interval = 5 * time.Millisecond
	long := New(Config{Explorer: slowed(cfg, 3*time.Millisecond), Workers: 2, CheckpointPath: path})
	long.cad.Interval = interval
	long.slice = time.Millisecond
	start := time.Now()
	if _, err := long.Explore(); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	periodic := long.ckp.Written() - 1
	if elapsed < 8*interval {
		t.Fatalf("fixture too fast: %v is not several intervals of %v", elapsed, interval)
	}
	// Cuts are an interval apart at least, and a lease's slice, a write and a
	// busy host apart at most: the upper bound is exact, the lower one loose.
	if most := int64(elapsed / interval); periodic > most || periodic < most/4 {
		t.Errorf("%d periodic writes in %v, want about one per %v (%d at most)", periodic, elapsed, interval, most)
	}
}

// TestKillResumeUnderDefaultCadence: an engine killed between two periodic
// writes of the default cadence resumes from the last one to exactly the
// uninterrupted report. The interval is shortened until every returned lease
// writes; each cut goes through the file's bytes, as a resume reads it.
func TestKillResumeUnderDefaultCadence(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 5, Program: fanInError, MixingBound: core.Unbounded, Runner: memo.Run}
	full := runParallel(t, cfg, 2)
	if len(full.rep.Errors) == 0 {
		t.Fatal("fixture finds no error")
	}

	e := New(Config{Explorer: slowed(cfg, 500*time.Microsecond), Workers: 2, CheckpointPath: filepath.Join(t.TempDir(), "ckp.json")})
	e.cad.Interval = time.Nanosecond
	e.slice = 500 * time.Microsecond
	var cuts [][]byte
	e.ckp.Save = func(c *Checkpoint, p string) error { // one write at a time: no lock
		var b bytes.Buffer
		if err := c.Write(&b); err != nil {
			return err
		}
		cuts = append(cuts, b.Bytes())
		return c.Save(p)
	}
	if _, err := e.Explore(); err != nil {
		t.Fatal(err)
	}
	midRun := 0
	for _, cut := range cuts[:len(cuts)-1] {
		ckp, err := ReadCheckpoint(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		if len(ckp.Frontier) == 0 || ckp.Interleavings == 0 {
			continue
		}
		midRun++
		sigs := map[string]bool{}
		rcfg := cfg
		rcfg.OnInterleaving = func(res *core.InterleavingResult) { sigs[res.Decisions.String()] = true }
		rrep, err := New(Config{Explorer: rcfg, Workers: 2, Resume: ckp}).Explore()
		if err != nil {
			t.Fatal(err)
		}
		// The cut lists the leases out whole and counts none of their replays:
		// resuming it alone is exactly-once.
		if got, want := ckp.Interleavings+len(sigs), full.rep.Interleavings; got != want || rrep.Interleavings != want {
			t.Errorf("cut at %d: resumed to %d interleavings (%d replayed), want %d", ckp.Interleavings, rrep.Interleavings, len(sigs), want)
		}
		resumed := &summary{sigs: full.sigs, errs: map[string]bool{}, rep: rrep}
		for _, e := range rrep.Errors {
			resumed.errs[e.Decisions.String()+": "+e.Err.Error()] = true
		}
		checkEquivalent(t, 2, full, resumed)
	}
	if midRun == 0 {
		t.Fatalf("none of the %d periodic cuts had both merged replays and a frontier", len(cuts)-1)
	}
}
