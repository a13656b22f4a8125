package dcoord

import (
	"errors"
	"net"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// fakeWorker is a raw protocol client: it joins the coordinator but runs no
// replays, giving tests direct control over heartbeats, silence, stale
// results and abrupt exits.
type fakeWorker struct {
	t       *testing.T
	conn    net.Conn
	job     string     // the announced job: result frames are tagged with it
	pending []wireTask // leases unpacked from task frames, not yet consumed
}

// dialFake joins addr with the given fingerprint and returns after the
// welcome frame.
func dialFake(t *testing.T, addr string, fp JobSpec, name string, slots int) *fakeWorker {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("fake worker dial: %v", err)
	}
	f := &fakeWorker{t: t, conn: conn}
	f.send(&frame{Type: msgHello, Proto: protoVersion, Worker: name, Slots: slots, Spec: &fp})
	fr := f.recv()
	if fr.Type != msgWelcome {
		t.Fatalf("fake worker handshake: got %s frame (reason %q), want welcome", fr.Type, fr.Reason)
	}
	return f
}

func (f *fakeWorker) send(fr *frame) {
	f.t.Helper()
	if fr.Type == msgResult && fr.Job == "" {
		fr.Job = f.job
	}
	if _, err := writeFrame(f.conn, fr); err != nil {
		f.t.Fatalf("fake worker send %s: %v", fr.Type, err)
	}
}

// recv reads one frame with a test-failure timeout.
func (f *fakeWorker) recv() *frame {
	f.t.Helper()
	_ = f.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr, _, err := readFrame(f.conn, maxFrameSize)
	if err != nil {
		f.t.Fatalf("fake worker recv: %v", err)
	}
	return fr
}

// recvTask returns the next lease, reading frames as needed: the job
// announcement that precedes the first task frame, then task frames.
func (f *fakeWorker) recvTask() wireTask {
	f.t.Helper()
	for len(f.pending) == 0 {
		switch fr := f.recv(); fr.Type {
		case msgJob:
			f.job = fr.Job
		case msgTask:
			if fr.Job != f.job || f.job == "" {
				f.t.Fatalf("task frame for job %q, announced %q", fr.Job, f.job)
			}
			f.pending = append(f.pending, fr.Tasks...)
		}
	}
	wt := f.pending[0]
	f.pending = f.pending[1:]
	return wt
}

func (f *fakeWorker) close() { f.conn.Close() }

// result returns lease wt the way a worker does: rep is what its replays
// add to the report, left what it hands back, each hanging from a root of wt.
func (f *fakeWorker) result(fp JobSpec, wt wireTask, rep *core.Report, left ...*core.SubtreeTask) {
	f.t.Helper()
	f.send(&frame{Type: msgResult, Result: &WireResult{Lease: wt.Lease, Delta: deltaOf(fp, rep, left...), roots: wt.Tasks}})
}

// deltaOf renders a report delta in the checkpoint codec.
func deltaOf(fp JobSpec, rep *core.Report, left ...*core.SubtreeTask) *dexplore.Checkpoint {
	cfg := fp.ExplorerConfig()
	return dexplore.NewCheckpoint("", &cfg, rep, left)
}

// rootRun is the delta of a self-discovery run that found one decision point.
func rootRun() *core.Report {
	return &core.Report{Interleavings: 1, DecisionPoints: 1, WildcardsAnalyzed: 1, FirstTrace: &core.RunTrace{}}
}

// failedRun is the delta of one replay that failed with msg.
func failedRun(msg string) *core.Report {
	return &core.Report{Interleavings: 1, Errors: []*core.InterleavingResult{{Err: errors.New(msg), Decisions: core.NewDecisions()}}}
}

// waitStatus polls the coordinator until cond holds or the deadline passes.
func waitStatus(t *testing.T, c *Coordinator, what string, cond func(Status) bool) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := c.Status()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s: %+v", what, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// leaseTestConfig is a minimal coordinator config for protocol-level tests
// (the fake worker never replays, so no program is involved on this side).
func leaseTestConfig(ttl time.Duration) Config {
	return Config{
		Fingerprint: JobSpec{Workload: "lease-test", Procs: 3, Space: dexplore.Space{MixingBound: core.Unbounded}},
		LeaseTTL:    ttl,
	}
}

// flipped is the child of parent a worker's search builds for flipping
// rank's epoch at lc to src (core.SubtreeTask.FlipChild): its prefix hangs
// from parent's.
func flipped(parent *core.SubtreeTask, rank int, lc uint64, src int) *core.SubtreeTask {
	return parent.FlipChild(core.Flippable{Rec: &core.EpochRecord{Rank: rank, LC: lc}}, src)
}

// dec builds a one-entry decision set.
func dec(rank int, lc uint64, src int) *core.Decisions {
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: rank, LC: lc}, src)
	return d
}
