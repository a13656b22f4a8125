package dcoord

import (
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
	if len(root.Keys) != 1 || root.Keys[0] != rootKey {
		f.t.Fatalf("first lease = %+v, want the root", root)
	}
	f.result(fp, root, rootRun(), children...)
	return children
}

// recordedResult is the body of a result frame a worker of this protocol
// version sent for a three-rank fan-in's root lease (testdata, committed).
const recordedResult = "testdata/result_root_v5.json"

// TestRecordedResultStillMerges: the recorded frame is what the worker still
// produces, field for field, and what the coordinator still merges.
func TestRecordedResultStillMerges(t *testing.T) {
	// Which sender wins the self run's first match is the scheduler's choice;
	// the members of the frame are the same either way.
	cfg := core.ExplorerConfig{Procs: 3, MixingBound: core.Unbounded, Program: func(p *mpi.Proc) error {
		if p.Rank() != 0 {
			return p.Send(0, 0, []byte{byte(p.Rank())}, p.CommWorld())
		}
		for i := 0; i < 2; i++ {
			if _, _, err := p.Recv(mpi.AnySource, 0, p.CommWorld()); err != nil {
				return err
			}
		}
		return nil
	}}
	w := NewWorker(WorkerConfig{Addr: "unused", Explorer: cfg})
	rt := &jobRuntime{cfg: cfg}
	res := w.runLease(rt, core.NewRunContext(&rt.cfg), wireTask{Lease: 1, Keys: []string{rootKey}, Tasks: []*core.SubtreeTask{core.RootTask(&cfg)}, Budget: 1})
	fresh, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	recorded, err := os.ReadFile(recordedResult)
	if err != nil {
		t.Fatal(err)
	}
	var a, b map[string]any
	if err := json.Unmarshal(recorded, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fresh, &b); err != nil {
		t.Fatal(err)
	}
	if got, want := memberTree(b), memberTree(a); got != want {
		t.Errorf("a result frame's members changed since it was recorded (protoVersion must move with them):\n got %s\nwant %s\nthe frame now:\n%s", got, want, fresh)
	}

	c, w1 := fuzzCoordinator(t, FingerprintFor("fuzz", &cfg), 0)
	var rec WireResult
	if err := json.Unmarshal(recorded, &rec); err != nil {
		t.Fatal(err)
	}
	c.handleResult(w1, &rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.runErr != nil || c.report.Interleavings != 1 || c.report.FirstTrace == nil || len(c.front.Tasks)+len(c.leases) == 0 {
		t.Errorf("recorded root result: err %v, %d interleavings, trace %v, %d subtrees found", c.runErr, c.report.Interleavings, c.report.FirstTrace != nil, len(c.front.Tasks)+len(c.leases))
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
// attached, holding the root lease: lease 1, key rootKey, budget 1.
func fuzzCoordinator(t *testing.T, fp JobSpec, max int) (*Coordinator, *workerConn) {
	fp.MaxInterleavings = max
	c, err := New(Config{Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	w := &workerConn{conn: nullConn{}, wire: c.wire, name: "fuzz", slots: 1, since: time.Now()}
	c.step(evAttach{w}, time.Now())
	if len(c.leases) != 1 || c.leases[0].Lease != 1 || c.leases[0].Keys[0] != rootKey || c.leases[0].Budget != 1 {
		t.Fatalf("root lease = %+v", c.leases)
	}
	return c, w
}

// FuzzLeaseResult: a result frame's body is untrusted past the frame reader.
// Whatever arrives for a held lease — or for none — the machine either fails
// the exploration or merges it; it never panics, and it never counts more
// replays than the cap.
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
		{Lease: 1, Keys: []string{rootKey}, Delta: deltaOf(fp, rootRun(), child, child)},
		{Lease: 1, Keys: []string{rootKey}, Delta: deltaOf(fp, failedRun("boom"))},
		{Lease: 1, Keys: []string{rootKey}, Delta: deltaOf(fp, &core.Report{Interleavings: 1 << 40})},
		{Lease: 1, Keys: []string{rootKey}, Delta: deltaOf(fp, &core.Report{}, core.RootTask(&cfg))},
		{Lease: 1, Keys: []string{rootKey}, Fatal: "harness failure"},
		{Lease: 9, Keys: []string{taskKey(child), rootKey}, Delta: deltaOf(fp, &core.Report{Interleavings: 2})},
	} {
		body, err := json.Marshal(res)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, true)
	}
	f.Add([]byte(`{"lease":1,"keys":["{}"],"delta":{"version":1,"procs":3,"mixing_bound":-1,"interleavings":1,"frontier":[null],"errors":[null]}}`), true)

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
		if held && slices.ContainsFunc(c.leases, func(l *lease) bool { return l.Lease == 1 }) {
			t.Fatalf("lease 1 still held after its result: %s", body)
		}
	})
}
