package dcoord

import (
	"errors"
	"net"
	"strings"
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
// add to the report, left what it hands back.
func (f *fakeWorker) result(fp JobSpec, wt wireTask, rep *core.Report, left ...*core.SubtreeTask) {
	f.t.Helper()
	f.send(&frame{Type: msgResult, Result: &WireResult{Lease: wt.Lease, Keys: wt.Keys, Delta: deltaOf(fp, rep, left...)}})
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

// TestLeaseExpiryRequeues: a worker that takes a lease and then hangs (no
// heartbeat) forfeits it; the task is requeued and handed out again.
func TestLeaseExpiryRequeues(t *testing.T) {
	cfg := leaseTestConfig(50 * time.Millisecond)
	c, addr := startCoordinator(t, cfg, redeliveries(100)) // expiry loops back to the same silent worker
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "silent", 1)
	defer f.close()
	task := f.recvTask()
	if len(task.Tasks) != 1 || task.Tasks[0] == nil || task.Keys[0] != rootKey || task.Budget != 1 {
		t.Fatalf("first lease is not the root task alone with a budget of 1: %+v", task)
	}

	st := waitStatus(t, c, "lease expiry requeue", func(st Status) bool { return st.Requeues >= 1 })
	if st.Interleavings != 0 {
		t.Errorf("silent worker produced interleavings: %+v", st)
	}

	// The requeued task must be re-leased (to the only — still silent —
	// worker): at-least-once delivery survives a hang.
	re := f.recvTask()
	if len(re.Tasks) != 1 || re.Keys[0] != task.Keys[0] || re.Keys[0] != taskKey(re.Tasks[0]) {
		t.Errorf("requeued lease carries keys %q for tasks %v, want %q", re.Keys, re.Tasks, task.Keys)
	}
	if re.Lease == task.Lease {
		t.Errorf("requeued task reused lease id %d", re.Lease)
	}
}

// TestHeartbeatKeepsLeaseAlive: heartbeats renew leases past the TTL, so a
// slow-but-alive worker keeps its work.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	cfg := leaseTestConfig(60 * time.Millisecond)
	c, addr := startCoordinator(t, cfg)
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "slow", 1)
	defer f.close()
	f.recvTask()

	// Heartbeat through 5 TTLs; the lease must survive with no requeue.
	stop := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(stop) {
		f.send(&frame{Type: msgHeartbeat, Worker: "slow"})
		time.Sleep(15 * time.Millisecond)
	}
	if st := c.Status(); st.Requeues != 0 || st.ActiveLeases != 1 {
		t.Errorf("heartbeating lease was lost: %+v", st)
	}
}

// TestHardLeaseAgeCapsHeartbeats: a hung replay under a live connection
// (heartbeats flowing, no result) still forfeits the lease at the hard age cap.
func TestHardLeaseAgeCapsHeartbeats(t *testing.T) {
	cfg := leaseTestConfig(50 * time.Millisecond)
	c, addr := startCoordinator(t, cfg, redeliveries(100), func(c *Coordinator) { c.maxLeaseAge = 150 * time.Millisecond })
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "wedged", 1)
	defer f.close()
	f.recvTask()
	done := make(chan struct{})
	defer close(done)
	go func() {
		ticker := time.NewTicker(10 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				if _, err := writeFrame(f.conn, &frame{Type: msgHeartbeat, Worker: "wedged"}); err != nil {
					return
				}
			}
		}
	}()
	waitStatus(t, c, "hard lease-age requeue", func(st Status) bool { return st.Requeues >= 1 })
}

// TestRedeliveryCapAborts: a task that keeps losing its lease (a poison
// task, or a cluster that cannot hold one) aborts the exploration with a
// clear error instead of looping forever.
func TestRedeliveryCapAborts(t *testing.T) {
	cfg := leaseTestConfig(40 * time.Millisecond)
	c, addr := startCoordinator(t, cfg, redeliveries(2))

	f := dialFake(t, addr, cfg.Fingerprint, "blackhole", 1)
	defer f.close()
	// Swallow every lease silently; expiry after expiry burns the cap.
	go func() {
		for {
			if _, _, err := readFrame(f.conn, maxFrameSize); err != nil {
				return
			}
		}
	}()

	_, err := waitFor(t, c)
	if err == nil {
		t.Fatal("redelivery cap exceeded but exploration reported success")
	}
	if got := err.Error(); !strings.Contains(got, "redelivery cap") {
		t.Errorf("cap error %q does not name the redelivery cap", got)
	}
}

// TestLateResultDeduplicated: a result arriving after its lease expired and
// the task was completed elsewhere is dropped — at-least-once delivery,
// effectively-once merge. A forged duplicate must not corrupt the report.
func TestLateResultDeduplicated(t *testing.T) {
	cfg := leaseTestConfig(50 * time.Millisecond)
	c, addr := startCoordinator(t, cfg, redeliveries(100))
	defer c.Stop()

	// The sluggard takes the root lease and sits on it past expiry.
	slug := dialFake(t, addr, cfg.Fingerprint, "sluggard", 1)
	defer slug.close()
	rootFrame := slug.recvTask()
	waitStatus(t, c, "root lease expiry", func(st Status) bool { return st.Requeues >= 1 })

	// A second worker completes the requeued root for real: one child task,
	// one decision point.
	child := &core.SubtreeTask{Decisions: dec(0, 1, 2), Budget: core.Unbounded, Explorable: true}
	fin := dialFake(t, addr, cfg.Fingerprint, "finisher", 1)
	defer fin.close()
	re := fin.recvTask()
	fin.result(cfg.Fingerprint, re, rootRun(), child)
	waitStatus(t, c, "real root merge", func(st Status) bool { return st.Interleavings == 1 })

	// The sluggard now delivers its stale root result — with a forged error
	// that must NOT enter the report.
	slug.result(cfg.Fingerprint, rootFrame, failedRun("forged late-duplicate error"))

	// Finish the child so the exploration ends.
	cf := fin.recvTask()
	if len(cf.Tasks) != 1 || cf.Keys[0] != taskKey(child) {
		t.Fatalf("second lease = %+v, want the child alone", cf)
	}
	fin.result(cfg.Fingerprint, cf, &core.Report{Interleavings: 1})

	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Interleavings != 2 {
		t.Errorf("interleavings = %d, want 2 (late duplicate double-counted?)", rep.Interleavings)
	}
	if len(rep.Errors) != 0 {
		t.Errorf("forged late duplicate entered the report: %v", rep.Errors)
	}
}

// TestHeldLeaseRejectsMismatchedEcho: while a lease is held the coordinator
// knows which task it is for; a result echoing another key is a protocol
// violation that fails the exploration instead of marking the wrong subtree
// done.
func TestHeldLeaseRejectsMismatchedEcho(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)

	f := dialFake(t, addr, cfg.Fingerprint, "confused", 1)
	defer f.close()
	root := f.recvTask()
	f.send(&frame{Type: msgResult, Result: &WireResult{
		Lease: root.Lease,
		Keys:  []string{dec(0, 1, 2).String()},
		Delta: deltaOf(cfg.Fingerprint, rootRun()),
	}})
	_, err := waitFor(t, c)
	if err == nil {
		t.Fatal("a result echoing another task's key was merged")
	}
	for _, want := range []string{"confused", "echoes key", root.Keys[0]} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestLateResultMergesByEchoedKey: a result that outlived its lease is
// identified by the key it echoes — the coordinator no longer holds anything
// else for it. It merges once, and the requeued copy of the same task, leased
// again meanwhile, is deduplicated when it completes.
func TestLateResultMergesByEchoedKey(t *testing.T) {
	cfg := leaseTestConfig(50 * time.Millisecond)
	c, addr := startCoordinator(t, cfg, redeliveries(100))
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "tardy", 1)
	defer f.close()
	first := f.recvTask()
	waitStatus(t, c, "root lease expiry", func(st Status) bool { return st.Requeues >= 1 })
	second := f.recvTask() // the requeued root, under a fresh lease

	late := rootRun()
	late.DecisionPoints = 0
	f.result(cfg.Fingerprint, first, late) // first's lease has expired
	waitStatus(t, c, "late root merge", func(st Status) bool { return st.Interleavings == 1 && st.DoneSet == 1 })
	f.result(cfg.Fingerprint, second, failedRun("the duplicate must not be merged"))

	rep, err := waitFor(t, c)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if rep.Interleavings != 1 || len(rep.Errors) != 0 || rep.WildcardsAnalyzed != 1 {
		t.Errorf("report = %d interleavings, %d errors, %d wildcards; want the late result alone (1, 0, 1)",
			rep.Interleavings, len(rep.Errors), rep.WildcardsAnalyzed)
	}
}

// dec builds a one-entry decision set.
func dec(rank int, lc uint64, src int) *core.Decisions {
	d := core.NewDecisions()
	d.Force(core.EpochID{Rank: rank, LC: lc}, src)
	return d
}
