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
	children := make([]*core.SubtreeTask, n)
	for i := range children {
		children[i] = &core.SubtreeTask{Decisions: dec(0, 1, i+1), Budget: core.Unbounded, Explorable: true}
	}
	root := f.recvTask()
	if len(root.Tasks) != 1 || !isRoot(root.Tasks[0]) {
		f.t.Fatalf("first lease = %+v, want the root", root)
	}
	f.result(fp, root, rootRun(), children...)
	return children
}

// recordedResult is the body of a result frame a worker of this protocol
// version sent for a three-rank fan-in's root lease (testdata, committed).
const recordedResult = "testdata/result_root_v5.json"

// recordedCut is a lease over three roots of a four-rank fan-in with a budget
// of one replay, and the result frame's body a v7 worker sent for it: the
// last root explored, the first two untouched (testdata, committed).
const recordedCut = "testdata/lease_cut_v7.json"

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

// sameMembers fails unless fresh has the members of the recorded frame body,
// but for the keys protocol 8 dropped, which a recording before it carries.
func sameMembers(t *testing.T, fresh *WireResult, recorded []byte) {
	t.Helper()
	body, err := json.MarshalIndent(fresh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var a, b map[string]any
	if err := json.Unmarshal(recorded, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &b); err != nil {
		t.Fatal(err)
	}
	delete(a, "keys")
	if got, want := memberTree(b), memberTree(a); got != want {
		t.Errorf("a result frame's members changed since it was recorded (protoVersion must move with them):\n got %s\nwant %s\nthe frame now:\n%s", got, want, body)
	}
}

// TestRecordedResultStillMerges: the recorded frames are what the worker
// still produces, field for field (but for the keys a recording before
// protocol 8 echoes), and what the coordinator still merges, those keys
// ignored: a root lease's result, and a result that names its untouched
// roots by count.
func TestRecordedResultStillMerges(t *testing.T) {
	// Which sender wins the self run's first match is the scheduler's choice;
	// the members of the frame are the same either way.
	cfg := core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: fanIn}
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	rt := &jobRuntime{cfg: cfg}
	recorded, err := os.ReadFile(recordedResult)
	if err != nil {
		t.Fatal(err)
	}
	sameMembers(t, w.runLease(rt, core.NewRunContext(&rt.cfg), wireTask{Lease: 1, Tasks: []*core.SubtreeTask{core.RootTask(&cfg)}, Budget: 1}), recorded)

	c, w1 := fuzzCoordinator(t, FingerprintFor("fuzz", &cfg), 0)
	var rec WireResult
	if err := json.Unmarshal(recorded, &rec); err != nil {
		t.Fatal(err)
	}
	c.handleResult(w1, &rec)
	c.mu.Lock()
	if c.runErr != nil || c.report.Interleavings != 1 || c.report.FirstTrace == nil || len(c.front.Tasks)+len(c.leases) == 0 {
		t.Errorf("recorded root result: err %v, %d interleavings, trace %v, %d subtrees found", c.runErr, c.report.Interleavings, c.report.FirstTrace != nil, len(c.front.Tasks)+len(c.leases))
	}
	c.mu.Unlock()

	// The cut lease, replayed afresh, and merged by a coordinator that
	// resumed with the lease's roots as its frontier and leased them out.
	body, err := os.ReadFile(recordedCut)
	if err != nil {
		t.Fatal(err)
	}
	var cut struct {
		Task   wireTask        `json:"task"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &cut); err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 4
	rt = &jobRuntime{cfg: cfg}
	sameMembers(t, w.runLease(rt, core.NewRunContext(&rt.cfg), cut.Task), cut.Result)

	ckp := deltaOf(FingerprintFor("fuzz", &cfg), &core.Report{Interleavings: 1}, cut.Task.Tasks...)
	c, err = New(Config{Fingerprint: FingerprintFor("fuzz", &cfg), Resume: ckp})
	if err != nil {
		t.Fatal(err)
	}
	w4 := &workerConn{conn: nullConn{}, wire: c.wire, name: "recorded", slots: 1, since: time.Now()}
	c.step(evAttach{w4}, time.Now())
	if len(c.leases) != 1 || !slices.EqualFunc(c.leases[0].Tasks, cut.Task.Tasks, sameTask) {
		t.Fatalf("the resumed coordinator leased %+v, want the recorded lease's roots %v", c.leases, cut.Task.Tasks)
	}
	rec = WireResult{}
	if err := json.Unmarshal(cut.Result, &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Untouched != 2 {
		t.Fatalf("recorded cut result leaves %d roots untouched, want 2", rec.Untouched)
	}
	c.handleResult(w4, &rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	waiting := slices.Concat(cut.Task.Tasks[:2], rec.Delta.Frontier[:1])
	var got []*core.SubtreeTask
	for _, l := range c.leases {
		got = append(got, l.Tasks...)
	}
	if c.runErr != nil || c.report.Interleavings != 2 || !slices.EqualFunc(got, waiting, sameTask) {
		t.Errorf("recorded cut result: err %v, %d interleavings, leased %v; want 2 and %v", c.runErr, c.report.Interleavings, got, waiting)
	}
}

// TestRunLeaseCountsUntouchedRoots: a worker names the roots it never started
// by count, lists none of its leased roots in its delta's frontier, and
// leaves the task frame's roots as they came: a budget of one replay or a
// stop after the first replay leaves all but the last of three untouched
// (and the last one's expansion in the frontier, in the slot it was popped
// from), an exhausted lease none.
func TestRunLeaseCountsUntouchedRoots(t *testing.T) {
	body, err := os.ReadFile(recordedCut)
	if err != nil {
		t.Fatal(err)
	}
	var cut struct {
		Task wireTask `json:"task"`
	}
	if err := json.Unmarshal(body, &cut); err != nil {
		t.Fatal(err)
	}
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: fanIn}
	for _, tc := range []struct {
		name                     string
		budget                   int
		stop                     bool
		untouched, replays, left int
	}{
		{"budget-1", 1, false, 2, 1, 1},
		{"stopped", 0, true, 2, 1, 1},
		{"exhausted", 0, false, 0, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
			if tc.stop {
				w.Stop()
			}
			rt := &jobRuntime{cfg: cfg}
			wt := cut.Task
			wt.Budget = tc.budget
			wt.Tasks = slices.Clone(cut.Task.Tasks)
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
			if !slices.Equal(wt.Tasks, cut.Task.Tasks) {
				t.Error("runLease wrote into the task frame's roots")
			}
		})
	}
}

// cutLease returns a coordinator that resumed with the recorded cut lease's
// three roots as its frontier and leased them to its one worker.
func cutLease(t *testing.T) (*Coordinator, *workerConn, wireTask) {
	t.Helper()
	body, err := os.ReadFile(recordedCut)
	if err != nil {
		t.Fatal(err)
	}
	var cut struct {
		Task wireTask `json:"task"`
	}
	if err := json.Unmarshal(body, &cut); err != nil {
		t.Fatal(err)
	}
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded}
	fp := FingerprintFor("fuzz", &cfg)
	c, err := New(Config{Fingerprint: fp, Resume: deltaOf(fp, &core.Report{Interleavings: 1}, cut.Task.Tasks...)})
	if err != nil {
		t.Fatal(err)
	}
	w := &workerConn{conn: nullConn{}, wire: c.wire, name: "cut", slots: 1, since: time.Now()}
	c.step(evAttach{w}, time.Now())
	if len(c.leases) != 1 || !slices.EqualFunc(c.leases[0].Tasks, cut.Task.Tasks, sameTask) {
		t.Fatalf("the resumed coordinator leased %+v, want the cut's three roots", c.leases)
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
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgTask, Job: "fuzz", Tasks: []wireTask{lease}}); err != nil {
		t.Fatal(err)
	}
	fr, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ExplorerConfig{Procs: 4, MixingBound: core.Unbounded, Program: fanIn}
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	w.Stop() // cut short after one replay, as a lease's time slice is
	rt := &jobRuntime{cfg: cfg}
	rc := core.NewRunContext(&rt.cfg)
	defer rc.Close()
	res := w.runLease(rt, rc, fr.Tasks[0])
	if res.Fatal != "" || res.Untouched != 2 || len(res.Delta.Frontier) != 1 {
		t.Fatalf("the cut lease ran to %+v, want two roots untouched and one leftover", res)
	}
	buf.Reset()
	if _, err := writeFrame(&buf, &frame{Type: msgResult, Job: "fuzz", Result: res}); err != nil {
		t.Fatal(err)
	}
	if want := `"frontier":{"roots":3,"pins":[],"nodes":[[2,-1,0,0,1,2]],"tasks":[[3,-1,1,2]]}`; !strings.Contains(buf.String(), want) {
		t.Errorf("result frame %s\nwants its leftover hanging from root 2: %s", buf.Bytes()[4:], want)
	}
	back, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		t.Fatal(err)
	}
	c.handleResult(cw, back.Result)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil || c.report.Interleavings != 2 {
		t.Fatalf("merging the result: err %v, %d interleavings, want 2", c.runErr, c.report.Interleavings)
	}
	var waiting []*core.SubtreeTask // leased again to the freed slot
	for _, l := range c.leases {
		waiting = append(waiting, l.Tasks...)
	}
	for _, p := range c.front.Tasks {
		waiting = append(waiting, p.task)
	}
	if want := slices.Concat(lease.Tasks[:2], res.Delta.Frontier); !slices.EqualFunc(waiting, want, sameTask) {
		t.Errorf("the frontier after the result is %v, want %v", waiting, want)
	}
}

// TestResultTableRefusedByRule: a result's table is vetted by the rules a
// flat list is — each leftover strictly below a root the worker started,
// none listed twice — read through the roots it names. A result breaking one
// fails the job, naming it, and merges nothing.
func TestResultTableRefusedByRule(t *testing.T) {
	// The lease's roots: 0 {r0:[0→1 1→3]}, 1 {r0:[0→2]}, 2 {r0:[0→3]}; the
	// first two untouched.
	for _, tc := range []struct{ name, frontier, want string }{
		{"under-an-untouched-root", `{"roots":3,"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[3,-1,1,2]]}`, "below root 0, which it never started"},
		{"twice", `{"roots":3,"pins":[],"nodes":[[2,-1,0,0,1,2],[2,-1,0,0,1,2]],"tasks":[[3,-1,1,2],[4,-1,1,2]]}`, "hands back subtree {r0:[0→3 1→2]} twice"},
		{"twice-by-another-path", `{"roots":3,"pins":[[0,1,2]],"nodes":[[2,-1,0,0,1,2],[2,0,1,0,1,2]],"tasks":[[3,-1,1,2],[4,-1,1,2]]}`, "twice"},
		{"flip-undoes-its-root", `{"roots":3,"pins":[],"nodes":[[2,-1,0,0,0,1]],"tasks":[[3,-1,1,2]]}`, "which is not below its root 2"},
		{"another-lease-shape", `{"roots":2,"pins":[],"nodes":[[1,-1,0,0,1,2]],"tasks":[[2,-1,1,2]]}`, "hangs from 2 lease roots, the lease has 3"},
		{"out-of-the-world", `{"roots":3,"pins":[[7,1,1]],"nodes":[[2,0,1,0,1,2]],"tasks":[[3,-1,1,2]]}`, "r7@1→1 is out of range for 4 ranks"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, cw, _ := cutLease(t)
			body := `{"lease":1,"untouched":2,"delta":{"version":2,"procs":4,"clock":0,"transport":0,"mixing_bound":-1,"interleavings":1,"decision_points":2,"wildcards_analyzed":0,"frontier":` + tc.frontier + `}}`
			var res WireResult
			if err := json.Unmarshal([]byte(body), &res); err != nil {
				t.Fatal(err)
			}
			c.handleResult(cw, &res)
			c.mu.Lock()
			defer c.mu.Unlock()
			if c.runErr == nil || !strings.Contains(c.runErr.Error(), tc.want) || c.report.Interleavings != 1 {
				t.Errorf("err %v, %d interleavings; want an error naming %q and nothing merged", c.runErr, c.report.Interleavings, tc.want)
			}
		})
	}
}

// TestTaskFrameTableRefusedByRule: a worker replays what a task frame's
// table says, so it answers Fatal for a lease whose subtrees a world cannot
// replay, and the reader refuses a table its leases do not cut exactly.
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

// FuzzLeaseResult: a result frame's body is untrusted past the frame reader.
// Whatever arrives for the held lease, the machine either fails the
// exploration or merges it; whatever arrives for another lease changes
// nothing. It never panics, and it never counts more replays than the cap.
func FuzzLeaseResult(f *testing.F) {
	const max = 3
	cfg := core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded}
	fp := FingerprintFor("fuzz", &cfg)
	recorded, err := os.ReadFile(recordedResult)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(recorded, true)
	f.Add(recorded, false)
	child := &core.SubtreeTask{Decisions: dec(0, 1, 2), Budget: core.Unbounded, Explorable: true}
	for _, res := range []*WireResult{
		{Lease: 1, Delta: deltaOf(fp, rootRun(), child, child)},
		{Lease: 1, Delta: deltaOf(fp, failedRun("boom"))},
		{Lease: 1, Delta: deltaOf(fp, &core.Report{Interleavings: 1 << 40})},
		{Lease: 1, Delta: deltaOf(fp, &core.Report{}, core.RootTask(&cfg))},
		{Lease: 1, Fatal: "harness failure"},
		{Lease: 9, Delta: deltaOf(fp, &core.Report{Interleavings: 2})},
		{Lease: 1, Untouched: 1, Delta: deltaOf(fp, &core.Report{})},
		{Lease: 1, Untouched: -1, Delta: deltaOf(fp, rootRun(), child)},
		{Lease: 1, Untouched: 2, Delta: deltaOf(fp, &core.Report{})},
		{Lease: 9, Untouched: 1, Delta: deltaOf(fp, rootRun())},
	} {
		body, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, true)
	}
	f.Add([]byte(`{"lease":1,"delta":{"version":1,"procs":3,"mixing_bound":-1,"interleavings":1,"frontier":[null],"errors":[null]}}`), true)
	// Protocol 9: the root lease's leftovers hanging from its one root, as a
	// worker's result frame carries them, and tables a worker never writes.
	root := core.RootTask(&cfg)
	flip := func(lc uint64, alt int) *core.SubtreeTask {
		return root.FlipChild(core.Flippable{Rec: &core.EpochRecord{Rank: 0, LC: lc}}, alt)
	}
	body, err := json.Marshal(&frame{Type: msgResult, Result: &WireResult{Lease: 1, Delta: deltaOf(fp, rootRun(), flip(0, 2), flip(1, 1)), roots: []*core.SubtreeTask{root}}})
	if err != nil {
		f.Fatal(err)
	}
	var v9 struct{ Result json.RawMessage }
	if err := json.Unmarshal(body, &v9); err != nil || !bytes.Contains(v9.Result, []byte(`"roots":1`)) {
		f.Fatalf("no protocol 9 result in %s (%v)", body, err)
	}
	f.Add([]byte(v9.Result), true)
	for _, frontier := range []string{
		`{"roots":1,"pins":[[0,0,1]],"nodes":[[0,0,1,0,1,2],[1,0,1,0,1,2]],"tasks":[[1,-1,1,1],[2,-1,1,2]]}`,
		`{"roots":1,"pins":[],"nodes":[[1,-1,0,0,1,2]],"tasks":[[1,-1,1,1]]}`,
		`{"roots":2,"pins":[[9,0,1]],"nodes":[[1,0,1,0,1,2]],"tasks":[[2,-1,1,1]]}`,
	} {
		f.Add([]byte(`{"lease":1,"delta":{"version":2,"procs":3,"mixing_bound":-1,"interleavings":1,"decision_points":1,"wildcards_analyzed":1,"first_trace":{},"frontier":`+frontier+`}}`), true)
	}

	f.Fuzz(func(t *testing.T, body []byte, held bool) {
		var res WireResult
		if json.Unmarshal(body, &res) != nil {
			return
		}
		if held {
			res.Lease = 1
		}
		c, w := fuzzCoordinator(t, fp, max)
		c.step(c.decode(w, &res), time.Now())
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
// (a null subtree, a decision out of range) — and never panics. The seeds are
// the frames a coordinator grants: its root lease, then a lease of the
// subtrees the root's replay left.
func FuzzTaskFrame(f *testing.F) {
	cfg := core.ExplorerConfig{Procs: 3, Program: fanInError, MixingBound: core.Unbounded}
	fp := FingerprintFor("fuzz", &cfg)
	c, _ := fuzzCoordinator(f, fp, 3)
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	rt := &jobRuntime{id: "fuzz", cfg: cfg}
	rc := core.NewRunContext(&rt.cfg)
	f.Cleanup(rc.Close)
	root := c.leases[0].wireTask
	res := w.runLease(rt, rc, root)
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
	for _, body := range []string{
		`{"type":"task","job":"fuzz","tasks":[{"lease":3,"tasks":[null]}]}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":4,"tasks":[{"decisions":{"by_rank":{"7":{"1":0}}}}]}]}`,
		// Protocol 9: a decision out of the world, a cycle, a short count.
		`{"type":"task","job":"fuzz","tasks":[{"lease":5,"count":1}],"table":{"pins":[[7,1,0]],"nodes":[[-1,0,1,0,2,1]],"tasks":[[0,-1,1,1]]}}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":6,"count":1}],"table":{"pins":[],"nodes":[[0,-1,0,0,2,1]],"tasks":[[0,-1,1,1]]}}`,
		`{"type":"task","job":"fuzz","tasks":[{"lease":7,"count":1},{"lease":8,"count":1,"budget":1}],"table":{"pins":[[0,0,1]],"nodes":[[-1,0,1,0,1,2]],"tasks":[[0,-1,1,1],[-1,-1,1,0]]}}`,
	} {
		f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, _, err := readFrame(bytes.NewReader(data), maxFrameSize)
		if err != nil {
			return
		}
		for _, wt := range fr.Tasks {
			res := w.runLease(rt, rc, wt)
			if res.Lease != wt.Lease || (res.Fatal == "") == (res.Delta == nil) {
				t.Fatalf("lease %d answered %+v", wt.Lease, res)
			}
			if slices.Contains(wt.Tasks, nil) && res.Fatal == "" {
				t.Fatalf("lease %d with a null subtree ran: %+v", wt.Lease, res)
			}
		}
	})
}
