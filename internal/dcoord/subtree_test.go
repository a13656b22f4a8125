package dcoord

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/sample"
	"dampi/mpi"
	"dampi/workloads/iprobe"
	"dampi/workloads/matmul"
)

// flipDeadlock deadlocks on the flipped branch: if the wildcard receive
// consumes rank 1's only message, the specific receive from rank 1 that
// follows can never match.
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

// TestLeaseShapeDoesNotChangeReport: how the frontier is cut into leases —
// roots per lease, the time slice (0 = hand back after every replay), slots
// per worker — decides which worker replays what and nothing else. Every
// shape yields the serial report.
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
				if serial.Deadlocks == 0 {
					t.Fatal("degenerate fixture: the deadlock case found no deadlock")
				}
			case serial.Interleavings < 3:
				t.Fatalf("degenerate fixture: %d interleavings", serial.Interleavings)
			case tc.name == "sampled" && serial.SampledDistinct == 0:
				t.Fatal("degenerate fixture: the sampled case sampled nothing")
			}
			for _, roots := range []int{1, 3, 0} {
				for _, slice := range []time.Duration{0, -1} {
					for _, slots := range []int{1, 3} {
						label := fmt.Sprintf("roots=%d slice=%v slots=%d", roots, slice, slots)
						dist, st := runShaped(t, "shape-"+tc.name, tc.cfg, shape{workers: 2, slots: slots, roots: roots, slice: slice})
						checkSameReport(t, label, serial, dist)
						if st.Requeues != 0 {
							t.Errorf("%s: %d requeues on a healthy cluster", label, st.Requeues)
						}
						// A zero slice cuts every lease short after its first
						// replay: each root but the last comes back untouched.
						if slice == 0 && st.LeasesGranted != uint64(dist.Interleavings) {
							t.Errorf("%s: %d leases for %d replays, want one each", label, st.LeasesGranted, dist.Interleavings)
						}
					}
				}
			}
		})
	}
}

// TestClusterCapIsExact: under MaxInterleavings the budgets of the leases out
// never exceed what the cap has left, so the cluster stops at exactly
// min(cap, space) replays and says Capped exactly when the serial explorer
// does — including at cap = space, where nothing was left to cut off.
func TestClusterCapIsExact(t *testing.T) {
	memo := newMemoRunner()
	base := core.ExplorerConfig{Procs: 8, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	const space = 64
	if got := runSerial(t, base).Interleavings; got != space {
		t.Fatalf("fixture explores %d interleavings, the caps below assume %d", got, space)
	}
	for _, max := range []int{1, 2, 7, 64, 65} {
		capped := base
		capped.MaxInterleavings = max
		serial := runSerial(t, capped)
		for _, sh := range []shape{
			{workers: 2, slots: 2, slice: -1, max: max},
			{workers: 3, slots: 1, roots: 2, slice: 0, max: max},
		} {
			dist, _ := runShaped(t, "cap-matmul", base, sh)
			if dist.Interleavings != min(max, space) || dist.Capped != serial.Capped {
				t.Errorf("cap %d on %+v: %d interleavings capped=%v, want %d capped=%v",
					max, sh, dist.Interleavings, dist.Capped, min(max, space), serial.Capped)
			}
		}
	}
}

// TestFramesPerReplayBounded: the coordinator hears from a worker once per
// lease, not once per replay.
func TestFramesPerReplayBounded(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, MixingBound: 1, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, cfg)
	dist, st := runShaped(t, "frames-matmul", cfg, shape{workers: 2, slots: 1, slice: -1})
	checkSameReport(t, "frames", serial, dist)
	if limit := int64(dist.Interleavings/20 + 8); st.FramesIn > limit {
		t.Errorf("%d frames in for %d interleavings (%d leases), want at most %d", st.FramesIn, dist.Interleavings, st.LeasesGranted, limit)
	}
}

// TestNoGrantBeforeWelcome: a worker joining while another streams results is
// registered before its welcome is written, so a dispatch the other
// connection triggers can pick it at once — and must not get its task frame
// onto the wire first: the joiner would fail its handshake, reconnect, and
// the lease be requeued.
func TestNoGrantBeforeWelcome(t *testing.T) {
	memo := newMemoRunner()
	cfg := core.ExplorerConfig{Procs: 6, Program: matmul.Program(matmul.Config{}), Runner: memo.Run}
	serial := runSerial(t, cfg)
	fp := FingerprintFor("welcome-matmul", &cfg)
	for i := 0; i < 200; i++ {
		c, addr := startCoordinator(t, Config{Fingerprint: fp, LeaseTTL: 2 * time.Second})
		c.setMaxRoots(1)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var events []string
		ws := make([]*Worker, 2)
		for j := range ws {
			w := NewWorker(WorkerConfig{Addr: addr, Name: fmt.Sprintf("w%d", j), Fingerprint: fp, Explorer: cfg, OnEvent: func(line string) {
				mu.Lock()
				events = append(events, line)
				mu.Unlock()
			}})
			w.slice = 0 // one result, and one dispatch, per replay
			ws[j] = w
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Run(); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
		}
		rep, err := waitFor(t, c)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		for _, w := range ws {
			w.Stop()
		}
		wg.Wait()
		if st := c.Status(); st.Requeues != 0 || rep.Interleavings != serial.Interleavings {
			t.Fatalf("round %d: %d requeues, %d interleavings (want 0, %d); worker events: %q", i, st.Requeues, rep.Interleavings, serial.Interleavings, events)
		}
		for _, line := range events {
			if strings.Contains(line, "handshake") {
				t.Fatalf("round %d: %s", i, line)
			}
		}
	}
}

// grown returns the root lease with a self-discovery run that found n
// children, which it hands back as the frontier.
func grown(f *fakeWorker, fp JobSpec, n int) []*core.SubtreeTask {
	f.t.Helper()
	root := f.recvTask()
	if len(root.Tasks) != 1 || !isRoot(root.Tasks[0]) {
		f.t.Fatalf("first lease = %+v, want the root", root)
	}
	children := make([]*core.SubtreeTask, n)
	for i := range children {
		children[i] = flipped(root.Tasks[0], 0, 1, i+1)
	}
	f.result(fp, root, rootRun(), children...)
	return children
}

// recordedLeases is a four-rank fan-in's first three leases as they crossed
// the wire, recorded by the release that introduced protocol 9: each lease's
// task frame body as the coordinator sent it and the result frame body its
// worker sent back. The root lease; a lease over the root's three children,
// cut after one replay; and a lease over the two that one left untouched, cut
// after one replay too, whose leftover hangs from its second root (testdata,
// committed).
const recordedLeases = "testdata/leases_v9.json"

// recordedLease is one lease of the recording.
type recordedLease struct {
	Task, Result json.RawMessage
}

// recording reads the recorded leases.
func recording(t testing.TB) []recordedLease {
	t.Helper()
	body, err := os.ReadFile(recordedLeases)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Procs  int
		Leases []recordedLease
	}
	if err := json.Unmarshal(body, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Procs != 4 || len(rec.Leases) != 3 {
		t.Fatalf("the recording holds %d leases of a %d-rank world, want 3 of 4", len(rec.Leases), rec.Procs)
	}
	return rec.Leases
}

// framed reads a frame body as a frameReader reads it off the wire.
func framed(t testing.TB, body []byte) *frame {
	t.Helper()
	fr, _, err := readFrame(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)), maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// leased is lease wt as a worker reads it off a task frame.
func leased(t testing.TB, wt wireTask) wireTask {
	t.Helper()
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgTask, Job: "fuzz", Tasks: []wireTask{wt}}); err != nil {
		t.Fatal(err)
	}
	fr, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	return fr.Tasks[0]
}

// fanIn is a program whose rank 0 receives one message from every other rank
// through wildcard receives.
func fanIn(p *mpi.Proc) error {
	if p.Rank() != 0 {
		return p.Send(0, 0, []byte{byte(p.Rank())}, p.CommWorld())
	}
	for i := 1; i < p.Size(); i++ {
		if _, _, err := p.Recv(mpi.AnySource, 0, p.CommWorld()); err != nil {
			return err
		}
	}
	return nil
}

// sameMembers fails unless the frame body fresh has the members of the
// recorded one.
func sameMembers(t *testing.T, fresh, recorded []byte) {
	t.Helper()
	var a, b map[string]any
	if err := json.Unmarshal(recorded, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &b); err != nil {
		t.Fatal(err)
	}
	if got, want := memberTree(b), memberTree(a); got != want {
		t.Errorf("a frame's members changed since it was recorded (protoVersion must move with them):\n got %s\nwant %s\nthe frame now:\n%s", got, want, fresh)
	}
}

// TestRecordedResultStillMerges: the recorded frames are what the coordinator
// and its worker still write and what the coordinator still merges. A
// coordinator fed the recorded results grants the recorded task frames byte
// for byte, and a worker given those answers with the recorded result frames,
// member for member.
func TestRecordedResultStillMerges(t *testing.T) {
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: fanIn}
	c, cw := fuzzCoordinator(t, FingerprintFor("fuzz", &cfg), 0)
	for i, rec := range recording(t) {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, &frame{Type: msgTask, Job: "fuzz", Tasks: []wireTask{c.leases[0].wireTask}}); err != nil {
			t.Fatal(err)
		}
		if got := buf.Bytes()[4:]; !bytes.Equal(got, rec.Task) {
			t.Errorf("lease %d: the coordinator writes the task frame\n%s\nrecorded as\n%s", i+1, got, rec.Task)
		}
		w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
		if i > 0 {
			w.Stop() // cut short after one replay, as a lease's time slice is
		}
		rt := &jobRuntime{id: "fuzz", cfg: cfg}
		rc := core.NewRunContext(&rt.cfg)
		res := w.runLease(rt, rc, framed(t, rec.Task).Tasks[0])
		rc.Close()
		buf.Reset()
		if _, err := writeFrame(&buf, &frame{Type: msgResult, Job: "fuzz", Result: res}); err != nil {
			t.Fatal(err)
		}
		sameMembers(t, buf.Bytes()[4:], rec.Result)
		c.handleResult(cw, framed(t, rec.Result).Result)
		if c.runErr != nil || c.report.Interleavings != i+1 || len(c.leases) != 1 {
			t.Fatalf("merging recorded result %d: err %v, %d interleavings, %d leases held; want %d and one", i+1, c.runErr, c.report.Interleavings, len(c.leases), i+1)
		}
	}
	if c.report.FirstTrace == nil {
		t.Error("the recorded root result merged without its trace")
	}
}

// TestRunLeaseCountsUntouchedRoots: a worker names the roots it never started
// by count, lists none of its leased roots in its delta's frontier, and
// leaves the task frame's roots as they came: a budget of one replay or a
// stop after the first replay leaves the first of the recorded third lease's
// two roots untouched (and the second one's expansion in the frontier), an
// exhausted lease none.
func TestRunLeaseCountsUntouchedRoots(t *testing.T) {
	cut := framed(t, recording(t)[2].Task).Tasks[0]
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: fanIn}
	for _, tc := range []struct {
		name                     string
		budget                   int
		stop                     bool
		untouched, replays, left int
	}{
		{"budget-1", 1, false, 1, 1, 1},
		{"stopped", 0, true, 1, 1, 1},
		{"exhausted", 0, false, 0, 4, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
			if tc.stop {
				w.Stop()
			}
			rt := &jobRuntime{cfg: cfg}
			wt := cut
			wt.Budget = tc.budget
			wt.Tasks = slices.Clone(cut.Tasks)
			res := w.runLease(rt, core.NewRunContext(&rt.cfg), wt)
			if res.Fatal != "" || res.Untouched != tc.untouched || res.Delta.Interleavings != tc.replays || len(res.Delta.Frontier) != tc.left {
				t.Fatalf("fatal %q, %d untouched, %d replays, %d left; want %d, %d, %d",
					res.Fatal, res.Untouched, res.Delta.Interleavings, len(res.Delta.Frontier), tc.untouched, tc.replays, tc.left)
			}
			for _, sub := range res.Delta.Frontier {
				if slices.ContainsFunc(wt.Tasks, func(r *core.SubtreeTask) bool { return r.Decisions.String() == sub.Decisions.String() }) {
					t.Errorf("leased root %s listed in the frontier", sub.Decisions)
				}
			}
			if !slices.Equal(wt.Tasks, cut.Tasks) {
				t.Error("runLease wrote into the task frame's roots")
			}
		})
	}
}

// cutLease returns a coordinator that merged the recorded results of the
// first two leases and so holds the third, over roots 0 {r0:[0→3]} and
// 1 {r0:[0→2]}, for its one worker "fuzz".
func cutLease(t *testing.T) (*Coordinator, *workerConn, wireTask) {
	t.Helper()
	leases := recording(t)
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded}
	c, w := fuzzCoordinator(t, FingerprintFor("fuzz", &cfg), 0)
	for _, rec := range leases[:2] {
		c.handleResult(w, framed(t, rec.Result).Result)
	}
	want := framed(t, leases[2].Task).Tasks[0]
	if c.runErr != nil || len(c.leases) != 1 || c.leases[0].Lease != 3 || !slices.EqualFunc(c.leases[0].Tasks, want.Tasks, sameTask) {
		t.Fatalf("after the recorded results (err %v) the coordinator holds %+v, want the recorded third lease's two roots", c.runErr, c.leases)
	}
	return c, w, c.leases[0].wireTask
}

// TestResultHangsLeftoversFromItsRoots: on the wire a lease's subtrees are
// one table, and its result's leftovers a table that hangs each from the
// lease root it was found under, none of whose prefix it repeats. The
// coordinator merges them, re-linked to the roots it holds, as the subtrees
// the worker left.
func TestResultHangsLeftoversFromItsRoots(t *testing.T) {
	c, cw, lease := cutLease(t)
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: fanIn}
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	w.Stop() // cut short after one replay, as a lease's time slice is
	rt := &jobRuntime{cfg: cfg}
	rc := core.NewRunContext(&rt.cfg)
	defer rc.Close()
	res := w.runLease(rt, rc, leased(t, lease))
	if res.Fatal != "" || res.Untouched != 1 || len(res.Delta.Frontier) != 1 {
		t.Fatalf("the cut lease ran to %+v, want one root untouched and one leftover", res)
	}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgResult, Job: "fuzz", Result: res}); err != nil {
		t.Fatal(err)
	}
	if want := `"frontier":{"roots":2,"pins":[],"nodes":[[1,-1,0,0,1,3]],"tasks":[[2,-1,1,2]]}`; !strings.Contains(buf.String(), want) {
		t.Errorf("result frame %s\nwants its leftover hanging from root 1: %s", buf.Bytes()[4:], want)
	}
	back, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	c.handleResult(cw, back.Result)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil || c.report.Interleavings != 3 {
		t.Fatalf("merging the result: err %v, %d interleavings, want 3", c.runErr, c.report.Interleavings)
	}
	var waiting []*core.SubtreeTask // leased again to the freed slot
	for _, l := range c.leases {
		waiting = append(waiting, l.Tasks...)
	}
	for _, p := range c.front.Tasks {
		waiting = append(waiting, p.task)
	}
	if want := slices.Concat(lease.Tasks[:1], res.Delta.Frontier); !slices.EqualFunc(waiting, want, sameTask) {
		t.Errorf("the frontier after the result is %v, want %v", waiting, want)
	}
}

// TestResultTableRefusedByRule: a result's leftovers hang from the roots of
// its lease, each strictly below a root the worker started and none listed
// twice. A result breaking a rule — and one whose frontier is a flat list, or
// a table that hangs from as many roots as the lease has not, or holds a row
// or a task that hangs from none — fails the job, naming the worker, the
// lease and the fault, and merges nothing.
func TestResultTableRefusedByRule(t *testing.T) {
	// The lease's roots: 0 {r0:[0→3]}, 1 {r0:[0→2]}; the first untouched.
	for _, tc := range []struct{ name, frontier, want string }{
		{"under-an-untouched-root", `{"roots":2,"pins":[],"nodes":[[0,-1,0,0,1,2]],"tasks":[[2,-1,1,2]]}`, "below root 0, which it never started"},
		{"twice", `{"roots":2,"pins":[],"nodes":[[1,-1,0,0,1,3],[1,-1,0,0,1,3]],"tasks":[[2,-1,1,2],[3,-1,1,2]]}`, "hands back subtree {r0:[0→2 1→3]} twice"},
		{"twice-by-another-path", `{"roots":2,"pins":[[0,1,3]],"nodes":[[1,-1,0,0,1,3],[1,0,1,0,1,3]],"tasks":[[2,-1,1,2],[3,-1,1,2]]}`, "twice"},
		{"flip-undoes-its-root", `{"roots":2,"pins":[],"nodes":[[1,-1,0,0,0,1]],"tasks":[[2,-1,1,2]]}`, "which is not below its root 1"},
		{"another-lease-shape", `{"roots":3,"pins":[],"nodes":[[1,-1,0,0,1,3]],"tasks":[[3,-1,1,2]]}`, "hangs from 3 lease roots, the lease has 2"},
		{"no-roots", `{"pins":[],"nodes":[[-1,-1,0,0,1,3]],"tasks":[[0,-1,1,2]]}`, "hangs from 0 lease roots, the lease has 2"},
		{"flat-list", `[{"decisions":{"by_rank":{"0":{"0":2,"1":3}}},"budget":-1,"explorable":true,"depth":2}]`, "frontier is a flat list"},
		{"row-below-no-root", `{"roots":2,"pins":[],"nodes":[[-1,-1,0,0,1,3]],"tasks":[[2,-1,1,2]]}`, "row 2 hangs from no lease root"},
		{"flat-row", `{"roots":2,"pins":[[0,0,2,0,1,3]],"nodes":[[-1,0,2]],"tasks":[[2,-1,1,2]]}`, "row 2 hangs from no lease root"},
		{"task-below-no-root", `{"roots":2,"pins":[],"nodes":[],"tasks":[[-1,-1,1,2]]}`, "task 0 hangs from no lease root"},
		{"out-of-the-world", `{"roots":2,"pins":[[7,1,1]],"nodes":[[1,0,1,0,1,3]],"tasks":[[2,-1,1,2]]}`, "r7@1→1 is out of range for 4 ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cw, _ := cutLease(t)
			body := `{"type":"result","job":"fuzz","result":{"lease":3,"untouched":1,"delta":{"version":2,"procs":4,"clock":0,"transport":0,"mixing_bound":-1,"interleavings":1,"decision_points":2,"wildcards_analyzed":0,"frontier":` + tc.frontier + `}}}`
			c.handleResult(cw, framed(t, []byte(body)).Result)
			c.mu.Lock()
			defer c.mu.Unlock()
			for _, want := range []string{"worker fuzz", "lease 3", tc.want} {
				if c.runErr == nil || !strings.Contains(c.runErr.Error(), want) {
					t.Errorf("err %v, want one naming %q", c.runErr, want)
				}
			}
			if c.report.Interleavings != 2 {
				t.Errorf("%d interleavings, want the 2 merged before and nothing of the refused result", c.report.Interleavings)
			}
		})
	}
}

// TestTaskFrameTableRefusedByRule: a worker replays what a task frame's
// table says, so it answers Fatal for a lease whose subtrees a world cannot
// replay, and the reader refuses a table its leases do not cut exactly, and a
// task list that is no table.
func TestTaskFrameTableRefusedByRule(t *testing.T) {
	cfg := core.ExplorerConfig{Procs: 3, Program: fanInError, MixingBound: core.Unbounded}
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	rt := &jobRuntime{id: "fuzz", cfg: cfg}
	rc := core.NewRunContext(&rt.cfg)
	defer rc.Close()
	for _, tc := range []struct{ name, body, want string }{
		{"rank-past-the-world", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":1}],"table":{"pins":[[3,1,0]],"nodes":[[-1,0,1,0,2,1]],"tasks":[[0,-1,1,1]]}}`, "fatal: r3@1→0 is out of range for 3 ranks"},
		{"source-past-the-world", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":1}],"table":{"pins":[],"nodes":[[-1,-1,0,0,2,5]],"tasks":[[0,-1,1,1]]}}`, "fatal: r0@2→5 is out of range"},
		{"cycle", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":1}],"table":{"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[0,-1,1,1]]}}`, "read: parent 0 is not an earlier row"},
		{"count-past-the-table", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":2}],"table":{"pins":[],"nodes":[],"tasks":[[-1,-1,1,0]]}}`, "read: lease 4 counts 2 subtrees, the table has 1 left"},
		{"subtree-in-no-lease", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":0}],"table":{"pins":[],"nodes":[],"tasks":[[-1,-1,1,0]]}}`, "read: 1 subtrees of the table are in no lease"},
		{"hangs-from-roots", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":1}],"table":{"roots":1,"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[1,-1,1,1]]}}`, "read: a task frame's table hangs from lease roots"},
		{"flat-list", `{"type":"task","job":"fuzz","tasks":[{"lease":4,"count":1}],"table":[{"decisions":null,"budget":-1,"explorable":true}]}`, "read: want '{'"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := append(binary.BigEndian.AppendUint32(nil, uint32(len(tc.body))), tc.body...)
			fr, _, err := readFrame(bytes.NewReader(data), maxFrameSize)
			got := ""
			switch {
			case err != nil:
				got = "read: " + err.Error()
			case len(fr.Tasks) != 1:
				t.Fatalf("read %d leases, want 1", len(fr.Tasks))
			default:
				got = "fatal: " + w.runLease(rt, rc, fr.Tasks[0]).Fatal
			}
			if want, _, _ := strings.Cut(tc.want, ": "); !strings.HasPrefix(got, want+": ") || !strings.Contains(got, tc.want[len(want)+2:]) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}

// memberTree renders the member names of a decoded JSON value, sorted, values
// dropped: the shape of a frame.
func memberTree(v any) string {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		var b strings.Builder
		b.WriteByte('{')
		for _, k := range keys {
			if k == "by_rank" {
				b.WriteString("by_rank ")
				continue // its members are ranks and epochs, not names
			}
			b.WriteString(k + memberTree(v[k]) + " ")
		}
		b.WriteByte('}')
		return b.String()
	case []any:
		if len(v) > 0 {
			return "[" + memberTree(v[0]) + "]"
		}
	}
	return ""
}

// nullConn is a worker connection that swallows every frame written to it.
type nullConn struct{ net.Conn }

func (nullConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nullConn) Close() error                     { return nil }
func (nullConn) SetWriteDeadline(time.Time) error { return nil }
func (nullConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }

// fuzzCoordinator returns an unserved coordinator with one 1-slot worker
// attached, holding the root lease: lease 1, the root task, budget 1.
func fuzzCoordinator(t testing.TB, fp JobSpec, max int) (*Coordinator, *workerConn) {
	fp.MaxInterleavings = max
	c, err := New(Config{Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	w := &workerConn{conn: nullConn{}, wire: c.wire, name: "fuzz", slots: 1, since: time.Now()}
	c.step(evAttach{w}, time.Now())
	if len(c.leases) != 1 || c.leases[0].Lease != 1 || !isRoot(c.leases[0].Tasks[0]) || c.leases[0].Budget != 1 {
		t.Fatalf("root lease = %+v", c.leases)
	}
	return c, w
}

// resultBody is the result member of res's result frame, as a worker writes
// it: the body a coordinator's frame reader hands on.
func resultBody(t testing.TB, res *WireResult) []byte {
	t.Helper()
	body, err := json.Marshal(&frame{Type: msgResult, Result: res})
	if err != nil {
		t.Fatal(err)
	}
	var fr struct{ Result json.RawMessage }
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatal(err)
	}
	return fr.Result
}

// FuzzLeaseResult: a result frame's body is untrusted past the frame reader,
// which reads each input as the result member of a result frame.
// Whatever arrives for the held lease, the machine either fails the
// exploration or merges it; whatever arrives for another lease changes
// nothing. It never panics, and it never counts more replays than the cap.
// The seeds are results as workers write them — the recorded ones, and
// results for the root lease whose leftovers hang from its root — and tables
// no worker writes.
func FuzzLeaseResult(f *testing.F) {
	const max = 3
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded}
	fp := FingerprintFor("fuzz", &cfg)
	for _, rec := range recording(f) {
		var fr struct{ Result json.RawMessage }
		if err := json.Unmarshal(rec.Result, &fr); err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(fr.Result), true)
		f.Add([]byte(fr.Result), false)
	}
	root := core.RootTask(&cfg)
	child := flipped(root, 0, 1, 2)
	for _, res := range []*WireResult{
		{Lease: 1, Delta: deltaOf(fp, rootRun(), child, flipped(root, 0, 0, 3))},
		{Lease: 1, Delta: deltaOf(fp, rootRun(), child, child)},
		{Lease: 1, Delta: deltaOf(fp, failedRun("boom"))},
		{Lease: 1, Delta: deltaOf(fp, &core.Report{Interleavings: 1 << 40})},
		{Lease: 1, Delta: deltaOf(fp, &core.Report{}, root)},
		{Lease: 1, Fatal: "harness failure"},
		{Lease: 9, Delta: deltaOf(fp, &core.Report{Interleavings: 2})},
		{Lease: 1, Untouched: 1, Delta: deltaOf(fp, &core.Report{})},
		{Lease: 1, Untouched: -1, Delta: deltaOf(fp, rootRun(), child)},
		{Lease: 1, Untouched: 2, Delta: deltaOf(fp, &core.Report{})},
		{Lease: 9, Untouched: 1, Delta: deltaOf(fp, rootRun())},
	} {
		res.roots = []*core.SubtreeTask{root}
		f.Add(resultBody(f, res), true)
	}
	for _, frontier := range []string{
		`{"roots":1,"pins":[],"nodes":[],"tasks":[]},"errors":[null]`,
		`{"roots":1,"pins":[[0,0,1]],"nodes":[[0,0,1,0,1,2],[1,0,1,0,1,2]],"tasks":[[1,-1,1,1],[2,-1,1,2]]}`,
		`{"roots":1,"pins":[],"nodes":[[1,-1,0,0,1,2]],"tasks":[[1,-1,1,1]]}`,
		`{"roots":2,"pins":[[9,0,1]],"nodes":[[1,0,1,0,1,2]],"tasks":[[2,-1,1,1]]}`,
		`{"roots":1,"pins":[],"nodes":[[-1,-1,0,0,1,2]],"tasks":[[1,-1,1,1],[-1,-1,1,0]]}`,
	} {
		f.Add([]byte(`{"lease":1,"delta":{"version":2,"procs":4,"mixing_bound":-1,"interleavings":1,"decision_points":1,"wildcards_analyzed":1,"first_trace":{},"frontier":`+frontier+`}}`), true)
	}

	f.Fuzz(func(t *testing.T, body []byte, held bool) {
		frame := append([]byte(`{"type":"result","result":`), body...)
		frame = append(frame, '}')
		fr, _, err := readFrame(bytes.NewReader(append(binary.BigEndian.AppendUint32(nil, uint32(len(frame))), frame...)), maxFrameSize)
		if err != nil || fr.Result == nil {
			return
		}
		res := fr.Result
		if held {
			res.Lease = 1
		}
		c, w := fuzzCoordinator(t, fp, max)
		c.step(c.decode(w, res), time.Now())
		if n := c.report.Interleavings; n < 0 || n > max || (c.runErr != nil && n != 0) {
			t.Fatalf("%d interleavings merged (cap %d, err %v) from %s", n, max, c.runErr, body)
		}
		if stillHeld := slices.ContainsFunc(c.leases, func(l *lease) bool { return l.Lease == 1 }); res.Lease == 1 && stillHeld {
			t.Fatalf("lease 1 still held after its result: %s", body)
		} else if res.Lease != 1 && (!stillHeld || c.runErr != nil || c.report.Interleavings != 0) {
			t.Fatalf("a result for lease %d, not held, changed the machine (held %v, err %v, %d merged): %s", res.Lease, stillHeld, c.runErr, c.report.Interleavings, body)
		}
	})
}

// FuzzTaskFrame: a task frame's body is untrusted past the frame reader, and
// a worker replays what it leases. Whatever leases arrive, the worker answers
// each — with what its replays added, or Fatal for one its world cannot replay
// (a decision out of range) — and never panics. The seeds are the frames a
// coordinator grants: its root lease, then a lease of the subtrees the root's
// replay left.
func FuzzTaskFrame(f *testing.F) {
	cfg := core.ExplorerConfig{Procs: 3, Program: fanInError, MixingBound: core.Unbounded}
	fp := FingerprintFor("fuzz", &cfg)
	c, _ := fuzzCoordinator(f, fp, 3)
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	rt := &jobRuntime{id: "fuzz", cfg: cfg}
	rc := core.NewRunContext(&rt.cfg)
	f.Cleanup(rc.Close)
	root := c.leases[0].wireTask
	res := w.runLease(rt, rc, leased(f, root))
	if res.Fatal != "" || len(res.Delta.Frontier) == 0 {
		f.Fatalf("root lease: %+v", res)
	}
	left := res.Delta.Frontier
	for _, wt := range []wireTask{root, {Lease: 2, Tasks: left, Budget: 2}} {
		var buf bytes.Buffer
		if _, err := writeFrame(&buf, &frame{Type: msgTask, Job: "fuzz", Tasks: []wireTask{wt}}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	// A decision out of the world, a cycle, two leases of one table, a flat
	// list for a table, and a table that hangs from lease roots.
	for _, body := range []string{
		`{"type":"task","job":"fuzz","tasks":[{"lease":5,"count":1}],"table":{"pins":[[7,1,0]],"nodes":[[-1,0,1,0,2,1]],"tasks":[[0,-1,1,1]]}}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":6,"count":1}],"table":{"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[0,-1,1,1]]}}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":7,"count":1},{"lease":8,"count":1,"budget":1}],"table":{"pins":[[0,0,1]],"nodes":[[-1,0,1,0,1,2]],"tasks":[[0,-1,1,1],[-1,-1,1,0]]}}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":9,"count":1}],"table":[{"decisions":{"by_rank":{"0":{"1":2}}},"budget":-1,"explorable":true}]}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":10,"count":1}],"table":{"roots":1,"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[1,-1,1,1]]}}`,
	} {
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bytes.NewReader(data), maxFrameSize)
		if err != nil {
			return
		}
		for _, wt := range fr.Tasks {
			if len(wt.Tasks) == 0 {
				continue // a worker's session answers no empty lease
			}
			res := w.runLease(rt, rc, wt)
			if res.Lease != wt.Lease || (res.Fatal == "") == (res.Delta == nil) {
				t.Fatalf("lease %d answered %+v", wt.Lease, res)
			}
		}
	})
}
