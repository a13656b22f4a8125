package dcoord

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/workloads/matmul"
)

// startQueued runs cfg the way Server.RunJob does — on a server that outlives
// it — but in steps, so a tweak can reach the coordinator between New and the
// first lease. The returned wait is the rest of RunJob.
func startQueued(t *testing.T, cfg Config, tweak func(*Coordinator)) (c *Coordinator, addr string, wait func() (*core.Report, *dexplore.Checkpoint, error)) {
	t.Helper()
	s, addr := startServer(t, ServerConfig{})
	t.Cleanup(func() { s.Close() })
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tweak(c)
	if err := s.start(c); err != nil {
		t.Fatal(err)
	}
	return c, addr, func() (*core.Report, *dexplore.Checkpoint, error) {
		rep, err := waitFor(t, c)
		return rep, c.left, err
	}
}

// TestSlowPeriodicWriteCannotOutliveTheExploration is the reproducer of a
// lost-progress bug: periodic checkpoints were saved on each connection's
// read loop with nothing ordering them, so a slow one could land after the
// final checkpoint and replace it with an older cut, or after a queue's
// RunJob had returned and bring back the file its caller had just removed.
// Two fake workers: the first one's result triggers a periodic write that is
// held open, the second one's ends the exploration. The end must wait for the
// write, and what is on disk afterwards is the end's to decide.
func TestSlowPeriodicWriteCannotOutliveTheExploration(t *testing.T) {
	for _, queued := range []bool{false, true} {
		t.Run(fmt.Sprintf("queued=%v", queued), func(t *testing.T) {
			cfg := leaseTestConfig(2 * time.Second)
			cfg.JobID = "slow-write"
			cfg.CheckpointPath = filepath.Join(t.TempDir(), "ckp.json")
			cfg.CheckpointEvery = 2
			entered, release := make(chan struct{}), make(chan struct{})
			hold := func(c *Coordinator) {
				c.ckp.Save = func(ckp *dexplore.Checkpoint, path string) error {
					if len(ckp.Frontier) > 0 { // the periodic cut: one lease is still out
						close(entered)
						<-release
					}
					return ckp.Save(path)
				}
			}
			var c *Coordinator
			var addr string
			if queued {
				c, addr, _ = startQueued(t, cfg, hold)
			} else {
				c, addr = startCoordinator(t, cfg, hold)
			}
			fp := cfg.Fingerprint
			first := dialFake(t, addr, fp, "first", 1)
			defer first.close()
			root := first.recvTask()
			second := dialFake(t, addr, fp, "second", 1)
			defer second.close()
			waitStatus(t, c, "both workers", func(st Status) bool { return len(st.Workers) == 2 })

			// Two subtrees and two idle slots: the grants fan out, one each.
			first.pending = append(first.pending, root)
			grown(first, fp, 2)
			mine, theirs := first.recvTask(), second.recvTask()
			first.result(fp, mine, &core.Report{Interleavings: 1}) // the second merged replay: a write falls due
			select {
			case <-entered:
			case <-time.After(10 * time.Second):
				t.Fatal("no periodic write after CheckpointEvery merged replays")
			}
			second.result(fp, theirs, &core.Report{Interleavings: 1}) // the last subtree: the exploration is over
			select {
			case <-c.doneCh:
				t.Fatal("the exploration ended while its periodic write was still out")
			case <-time.After(30 * time.Millisecond):
			}
			close(release)
			rep, err := waitFor(t, c)
			if err != nil || rep.Interleavings != 3 {
				t.Fatalf("report = %v (err %v), want 3 interleavings", rep, err)
			}
			if queued {
				// The last cut is the caller's; the file is the periodic one, and
				// once removed it stays removed: nothing is writing it any more.
				if c.left == nil || c.left.Interleavings != 3 || len(c.left.Frontier) != 0 || c.ckp.Written() != 1 {
					t.Fatalf("queued job left %+v after %d writes, want the cut at 3 replays, unwritten, after the periodic one", c.left, c.ckp.Written())
				}
				if err := os.Remove(cfg.CheckpointPath); err != nil {
					t.Fatal(err)
				}
				c.ckp.Periodic(c.left)
				if _, err := os.Stat(cfg.CheckpointPath); !os.IsNotExist(err) || c.ckp.Written() != 1 {
					t.Errorf("a periodic write after the exploration ended brought the file back (stat: %v)", err)
				}
				return
			}
			ckp, err := dexplore.LoadCheckpoint(cfg.CheckpointPath)
			if err != nil {
				t.Fatal(err)
			}
			if ckp.Interleavings != 3 || len(ckp.Frontier) != 0 || c.ckp.Written() != 2 {
				t.Errorf("the file holds the cut at %d replays (frontier %d) after %d writes, want the final one: 3, none, 2",
					ckp.Interleavings, len(ckp.Frontier), c.ckp.Written())
			}
		})
	}
}

// slowWorker joins addr as one single-slot worker whose every replay of cfg
// takes d longer, cut into leases of at most slice; stop waits its Run out.
func slowWorker(t *testing.T, addr string, fp JobSpec, cfg core.ExplorerConfig, d, slice time.Duration) (stop func()) {
	t.Helper()
	run := cfg.Runner
	cfg.Runner = func(c *core.ExplorerConfig, dec *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		time.Sleep(d)
		return run(c, dec)
	}
	w := NewWorker(WorkerConfig{Addr: addr, Name: "slow", Slots: 1, Fingerprint: fp, Explorer: cfg})
	w.slice = slice
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := w.Run(); err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	return func() { w.Stop(); wg.Wait() }
}

// TestDefaultCadenceFollowsTheClock: without a CheckpointEvery a coordinator
// writes by the clock. A run shorter than the interval writes one file, the
// final one, one-shot, and none at all under a queue, whose caller gets the
// last cut instead; a run several intervals long writes about one per
// interval.
func TestDefaultCadenceFollowsTheClock(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, base)
	fp := FingerprintFor("cadence-matmul", &base)
	config := func() Config {
		return Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, CheckpointPath: filepath.Join(t.TempDir(), "ckp.json")}
	}
	anHour := func(c *Coordinator) {
		if c.cad.Every != 0 {
			t.Errorf("a Config without CheckpointEvery checkpoints by count")
		}
		c.cad.Interval = time.Hour // shorter than the interval on any host
	}

	cfg := config()
	c, addr := startCoordinator(t, cfg, anHour)
	stop := slowWorker(t, addr, fp, base, 0, dexplore.LeaseSlice)
	rep, err := waitFor(t, c)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	checkSameReport(t, "one-shot", serial, rep)
	if ckp, err := dexplore.LoadCheckpoint(cfg.CheckpointPath); err != nil || ckp.Interleavings != serial.Interleavings || c.ckp.Written() != 1 {
		t.Errorf("a one-shot run shorter than the interval wrote %d files (last: %+v, err %v), want the final one alone", c.ckp.Written(), ckp, err)
	}

	cfg = config()
	c, addr, wait := startQueued(t, cfg, anHour)
	stop = slowWorker(t, addr, fp, base, 0, dexplore.LeaseSlice)
	rep, left, err := wait()
	stop()
	if err != nil {
		t.Fatal(err)
	}
	checkSameReport(t, "queued", serial, rep)
	if _, err := os.Stat(cfg.CheckpointPath); !os.IsNotExist(err) || c.ckp.Written() != 0 {
		t.Errorf("a queued run shorter than the interval wrote %d files (stat: %v), want none", c.ckp.Written(), err)
	}
	if left == nil || left.Interleavings != serial.Interleavings || len(left.Frontier) != 0 {
		t.Errorf("a complete queued run left %+v, want the whole report and no frontier", left)
	}

	const interval = 5 * time.Millisecond
	cfg = config()
	c, addr = startCoordinator(t, cfg, func(c *Coordinator) { c.cad.Interval = interval })
	start := time.Now()
	stop = slowWorker(t, addr, fp, base, 2*time.Millisecond, time.Millisecond)
	rep, err = waitFor(t, c)
	elapsed := time.Since(start)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	checkSameReport(t, "several intervals", serial, rep)
	if elapsed < 8*interval {
		t.Fatalf("fixture too fast: %v is not several intervals of %v", elapsed, interval)
	}
	// Cuts are an interval apart at least, and a lease and a write apart at
	// most: the upper bound is exact, the lower one loose.
	periodic := c.ckp.Written() - 1
	if most := int64(elapsed / interval); periodic > most || periodic < most/4 {
		t.Errorf("%d periodic writes in %v, want about one per %v (%d at most)", periodic, elapsed, interval, most)
	}
}

// TestKillResumeUnderDefaultCadence: a coordinator killed between two
// periodic writes of the default cadence resumes from the last one to the
// serial report. The interval is shortened until every merged lease writes;
// each cut goes through the file's bytes, as a resume reads it, and a cut
// lists the leases out whole without counting any of their replays, so
// resuming it alone is exactly-once.
func TestKillResumeUnderDefaultCadence(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, base)
	fp := FingerprintFor("kill-cadence-matmul", &base)

	var cuts [][]byte
	cfg := Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, CheckpointPath: filepath.Join(t.TempDir(), "ckp.json")}
	c, addr := startCoordinator(t, cfg, func(c *Coordinator) {
		c.cad.Interval = time.Nanosecond
		c.ckp.Save = func(ckp *dexplore.Checkpoint, path string) error { // one write at a time: no lock
			var b bytes.Buffer
			if err := ckp.Write(&b); err != nil {
				return err
			}
			cuts = append(cuts, b.Bytes())
			return ckp.Save(path)
		}
	})
	stop := slowWorker(t, addr, fp, base, 200*time.Microsecond, 500*time.Microsecond)
	_, err := waitFor(t, c)
	stop()
	if err != nil {
		t.Fatal(err)
	}
	var midRun []*dexplore.Checkpoint
	for _, cut := range cuts[:len(cuts)-1] {
		ckp, err := dexplore.ReadCheckpoint(bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		if len(ckp.Frontier) > 0 && ckp.Interleavings > 1 {
			midRun = append(midRun, ckp)
		}
	}
	if len(midRun) == 0 {
		t.Fatalf("none of the %d periodic cuts had both merged subtrees and a frontier", len(cuts)-1)
	}
	for _, ckp := range []*dexplore.Checkpoint{midRun[0], midRun[len(midRun)/2], midRun[len(midRun)-1]} {
		c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second, Resume: ckp})
		stop := slowWorker(t, addr, fp, base, 0, dexplore.LeaseSlice)
		rep, err := waitFor(t, c)
		stop()
		if err != nil {
			t.Fatalf("resuming the cut at %d: %v", ckp.Interleavings, err)
		}
		checkSameReport(t, fmt.Sprintf("killed at %d", ckp.Interleavings), serial, rep)
	}
}
