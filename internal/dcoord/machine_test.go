package dcoord

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// rig steps one machine on a fake clock: the lease protocol without a socket,
// a goroutine or a sleep. It names the subtrees it hands out, so rows can
// spell leases as keys, and remembers every lease granted, so a result can
// echo it.
type rig struct {
	t       *testing.T
	c       *Coordinator // built by New; only its machine and Status are used
	start   time.Time
	workers map[string]*workerConn
	names   map[string]string // task key → name
	tasks   map[string]*core.SubtreeTask
	granted map[uint64]wireTask
	ended   int // finalize actions seen
}

func newRig(t *testing.T, cfg Config, tweak ...func(*machine)) *rig {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range tweak {
		f(&c.machine)
	}
	return &rig{t: t, c: c, start: time.Unix(1_000_000, 0), workers: map[string]*workerConn{},
		names: map[string]string{rootKey: "root"}, tasks: map[string]*core.SubtreeTask{}, granted: map[uint64]wireTask{}}
}

// task is the subtree called name, made on first use: a one-entry decision
// set no other name has, within leaseTestConfig's three ranks.
func (r *rig) task(name string) *core.SubtreeTask {
	if t, ok := r.tasks[name]; ok {
		return t
	}
	n := len(r.tasks)
	t := &core.SubtreeTask{Decisions: dec(n%3, uint64(n/3+1), (n+1)%3), Budget: core.Unbounded, Explorable: true}
	r.tasks[name], r.names[taskKey(t)] = t, name
	return t
}

func (r *rig) worker(name string, slots int) *workerConn {
	w, ok := r.workers[name]
	if !ok {
		w = &workerConn{conn: nullConn{}, wire: r.c.wire, name: name, slots: slots, since: r.start}
		r.workers[name] = w
	}
	return w
}

// Events, built when their row runs.
type evFn func(*rig) any

func join(name string, slots int) evFn {
	return func(r *rig) any { return evAttach{r.worker(name, slots)} }
}
func beat(name string) evFn { return func(r *rig) any { return evHeartbeat{r.worker(name, 1)} } }
func tick() evFn            { return func(*rig) any { return evTick{} } }

// ret returns lease id from name the way a worker does: the lease's own keys
// echoed, rep the delta, left the named subtrees handed back.
func ret(name string, id uint64, rep *core.Report, left ...string) evFn {
	return func(r *rig) any {
		keys := r.granted[id].Keys
		if keys == nil {
			r.t.Fatalf("no lease %d was granted", id)
		}
		return r.wire(name, &WireResult{Lease: id, Keys: keys, Delta: r.delta(rep, left...)})
	}
}

// wire decodes a result frame's body from name, as the driver does.
func (r *rig) wire(name string, res *WireResult) evResult {
	return r.c.decode(r.worker(name, 1), res)
}

func (r *rig) delta(rep *core.Report, left ...string) *dexplore.Checkpoint {
	tasks := make([]*core.SubtreeTask, len(left))
	for i, n := range left {
		tasks[i] = r.task(n)
	}
	return deltaOf(r.c.cfg.Fingerprint, rep, tasks...)
}

// row is one step: the event at a time from the start, the actions it must
// produce, rendered, and — when st is set — the status after it, rendered.
type row struct {
	at   time.Duration
	ev   evFn
	want string
	st   string
}

// run steps the rows in order.
func (r *rig) run(rows []row) {
	r.t.Helper()
	for i, rw := range rows {
		acts := r.c.step(rw.ev(r), r.start.Add(rw.at))
		if got := r.render(acts); got != rw.want {
			r.t.Fatalf("row %d (%v): actions\n got %q\nwant %q", i, rw.at, got, rw.want)
		}
		if rw.st != "" {
			if got := r.status(); got != rw.st {
				r.t.Fatalf("row %d (%v): status\n got %q\nwant %q", i, rw.at, got, rw.st)
			}
		}
	}
}

// render spells actions as "w:#id[keys]/budget" for a task frame (one lease
// per element), "cut@N+F" for a periodic cut of N replays and F subtrees, and
// "end[workers]" (plus its cut) for the end, joined by "; ".
func (r *rig) render(acts []any) string {
	var out []string
	for _, a := range acts {
		switch a := a.(type) {
		case actSend:
			var leases []string
			for _, wt := range a.fr.Tasks {
				r.granted[wt.Lease] = wt
				leases = append(leases, fmt.Sprintf("#%d[%s]/%d", wt.Lease, r.keys(wt), wt.Budget))
			}
			out = append(out, a.w.name+":"+strings.Join(leases, ","))
		case actPeriodic:
			out = append(out, cutString(a.cut))
		case actFinalize:
			r.ended++
			var ws []string
			for _, w := range a.conns {
				ws = append(ws, w.name)
			}
			s := "end[" + strings.Join(ws, " ") + "]"
			if a.cut != nil {
				s += " " + cutString(a.cut)
			}
			out = append(out, s)
		default:
			r.t.Fatalf("unknown action %T", a)
		}
	}
	return strings.Join(out, "; ")
}

func cutString(ckp *dexplore.Checkpoint) string {
	return fmt.Sprintf("cut@%d+%d", ckp.Interleavings, len(ckp.Frontier))
}

// keys names a lease's subtrees, checking each key is its task's.
func (r *rig) keys(wt wireTask) string {
	var ns []string
	for i, k := range wt.Keys {
		if taskKey(wt.Tasks[i]) != k {
			r.t.Fatalf("lease %d carries key %s for task %s", wt.Lease, k, taskKey(wt.Tasks[i]))
		}
		n, ok := r.names[k]
		if !ok {
			n = k
		}
		ns = append(ns, n)
	}
	return strings.Join(ns, " ")
}

// status renders the Status fields the lease protocol moves.
func (r *rig) status() string {
	st := r.c.Status()
	return fmt.Sprintf("%s n=%d errors=%d frontier=%d leases=%d granted=%d done=%d requeues=%d",
		st.State, st.Interleavings, st.Errors, st.FrontierDepth, st.ActiveLeases, st.LeasesGranted, st.DoneSet, st.Requeues)
}

// wantErr requires the exploration to have failed with every fragment.
func (r *rig) wantErr(fragments ...string) {
	r.t.Helper()
	for _, f := range fragments {
		if r.c.runErr == nil || !strings.Contains(r.c.runErr.Error(), f) {
			r.t.Errorf("error %v does not mention %q", r.c.runErr, f)
		}
	}
}

const ms = time.Millisecond

// TestLeaseExpiryRequeues: a worker that takes a lease and then hangs (no
// heartbeat) forfeits it at the TTL, not before; the task is requeued and
// leased again, under a new id — to the only, still silent, worker:
// at-least-once delivery survives a hang.
func TestLeaseExpiryRequeues(t *testing.T) {
	r := newRig(t, leaseTestConfig(50*ms), func(m *machine) { m.maxRedeliveries = 100 })
	r.run([]row{
		{0, join("silent", 1), "silent:#1[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=1 done=0 requeues=0"},
		{50 * ms, tick(), "", ""},
		{51 * ms, tick(), "silent:#2[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=2 done=0 requeues=1"},
	})
}

// TestHeartbeatKeepsLeaseAlive: heartbeats renew leases past the TTL, so a
// slow-but-alive worker keeps its work through five TTLs.
func TestHeartbeatKeepsLeaseAlive(t *testing.T) {
	r := newRig(t, leaseTestConfig(60*ms))
	rows := []row{{0, join("slow", 1), "slow:#1[root]/1", ""}}
	for at := 15 * ms; at <= 300*ms; at += 15 * ms {
		rows = append(rows, row{at, beat("slow"), "", ""}, row{at + 14*ms, tick(), "", ""})
	}
	rows[len(rows)-1].st = "exploring n=0 errors=0 frontier=0 leases=1 granted=1 done=0 requeues=0"
	r.run(rows)
}

// TestHardLeaseAgeCapsHeartbeats: a hung replay under a live connection
// (heartbeats flowing, no result) still forfeits the lease at the hard age
// cap.
func TestHardLeaseAgeCapsHeartbeats(t *testing.T) {
	r := newRig(t, leaseTestConfig(50*ms), func(m *machine) { m.maxRedeliveries, m.maxLeaseAge = 100, 150*ms })
	rows := []row{{0, join("wedged", 1), "wedged:#1[root]/1", ""}}
	for at := 10 * ms; at <= 150*ms; at += 10 * ms {
		rows = append(rows, row{at, beat("wedged"), "", ""}, row{at, tick(), "", ""})
	}
	rows = append(rows, row{151 * ms, tick(), "wedged:#2[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=2 done=0 requeues=1"})
	r.run(rows)
}

// TestRedeliveryCapAborts: a task that keeps losing its lease (a poison task,
// or a cluster that cannot hold one) aborts the exploration with a clear
// error instead of looping forever.
func TestRedeliveryCapAborts(t *testing.T) {
	r := newRig(t, leaseTestConfig(40*ms), func(m *machine) { m.maxRedeliveries = 2 })
	r.run([]row{
		{0, join("blackhole", 1), "blackhole:#1[root]/1", ""},
		{41 * ms, tick(), "blackhole:#2[root]/1", ""},
		{82 * ms, tick(), "blackhole:#3[root]/1", ""},
		{123 * ms, tick(), "end[blackhole]", "failed n=0 errors=0 frontier=0 leases=0 granted=3 done=0 requeues=3"},
	})
	r.wantErr("redelivery cap 2", "lost its lease 3 times")
}

// TestLateResultDeduplicated: a result arriving after its lease expired and
// the task was completed elsewhere is dropped — at-least-once delivery,
// effectively-once merge. A forged duplicate must not corrupt the report.
func TestLateResultDeduplicated(t *testing.T) {
	r := newRig(t, leaseTestConfig(50*ms), func(m *machine) { m.maxRedeliveries = 100 })
	r.run([]row{
		{0, join("sluggard", 1), "sluggard:#1[root]/1", ""},
		{1 * ms, join("finisher", 1), "", ""},
		// The expired root goes round to the next worker.
		{51 * ms, tick(), "finisher:#2[root]/1", ""},
		{60 * ms, ret("finisher", 2, rootRun(), "c"), "sluggard:#3[c]/0", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 done=1 requeues=1"},
		// The sluggard's stale root result, with a forged error: dropped.
		{61 * ms, ret("sluggard", 1, failedRun("forged late-duplicate error")), "", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 done=1 requeues=1"},
		{62 * ms, ret("sluggard", 3, &core.Report{Interleavings: 1}), "end[sluggard finisher]", "done n=2 errors=0 frontier=0 leases=0 granted=3 done=2 requeues=1"},
	})
}

// TestHeldLeaseRejectsMismatchedEcho: while a lease is held the machine knows
// which task it is for; a result echoing another key is a protocol violation
// that fails the exploration instead of marking the wrong subtree done.
func TestHeldLeaseRejectsMismatchedEcho(t *testing.T) {
	r := newRig(t, leaseTestConfig(time.Second))
	other := taskKey(r.task("other"))
	r.run([]row{
		{0, join("confused", 1), "confused:#1[root]/1", ""},
		{1 * ms, func(r *rig) any {
			return r.wire("confused", &WireResult{Lease: 1, Keys: []string{other}, Delta: r.delta(rootRun())})
		}, "end[confused]", "failed n=0 errors=0 frontier=0 leases=0 granted=1 done=0 requeues=0"},
	})
	r.wantErr("confused", "echoes key", rootKey, other)
}

// TestLateResultMergesByEchoedKey: a result that outlived its lease is
// identified by the key it echoes — the machine holds nothing else for it. It
// merges once, and the requeued copy of the same task, leased again
// meanwhile, is deduplicated when it completes.
func TestLateResultMergesByEchoedKey(t *testing.T) {
	r := newRig(t, leaseTestConfig(50*ms), func(m *machine) { m.maxRedeliveries = 100 })
	late := rootRun()
	late.DecisionPoints = 0
	r.run([]row{
		{0, join("tardy", 1), "tardy:#1[root]/1", ""},
		{51 * ms, tick(), "tardy:#2[root]/1", ""},
		{52 * ms, ret("tardy", 1, late), "", "exploring n=1 errors=0 frontier=0 leases=1 granted=2 done=1 requeues=1"},
		{53 * ms, ret("tardy", 2, failedRun("the duplicate must not be merged")), "end[tardy]", "done n=1 errors=0 frontier=0 leases=0 granted=2 done=1 requeues=1"},
	})
	if rep := r.c.report; rep.WildcardsAnalyzed != 1 || rep.DecisionPoints != 0 {
		t.Errorf("report carries %d wildcards and %d decision points, want the late result's 1 and 0", rep.WildcardsAnalyzed, rep.DecisionPoints)
	}
}

// twoFailed is a two-replay delta with one failure.
func twoFailed(msg string) *core.Report {
	rep := failedRun(msg)
	rep.Interleavings = 2
	return rep
}

// TestOverlappingLateResultsCountOnce: a lease over {a, b} expires; its roots
// are leased again as {c, a} and {b}; then all three results arrive. A delta
// is one sum, so dedup is all or nothing: whichever side lands first is
// merged, anything overlapping it afterwards is dropped whole, and a root
// only the dropped lease held (c) goes back to be explored. Every subtree is
// counted exactly once either way, and no dropped result's error gets in.
func TestOverlappingLateResultsCountOnce(t *testing.T) {
	// The frontier was [c] when a and b came back: {c, a} goes to x, {b} to y.
	lost := []row{
		{0, join("x", 1), "x:#1[root]/1", ""},
		{1 * ms, ret("x", 1, rootRun(), "a", "b", "c"), "x:#2[a b]/0", ""},
		{102 * ms, tick(), "x:#3[c a]/0", ""},
		{103 * ms, join("y", 1), "y:#4[b]/0", "exploring n=1 errors=0 frontier=0 leases=2 granted=4 done=1 requeues=1"},
	}
	for _, lateFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("late-first=%v", lateFirst), func(t *testing.T) {
			r := newRig(t, leaseTestConfig(100*ms), func(m *machine) { m.maxRedeliveries, m.maxRoots = 100, 2 })
			if lateFirst {
				r.run(append(lost, []row{
					{104 * ms, ret("x", 2, &core.Report{Interleavings: 2}), "", "exploring n=3 errors=0 frontier=0 leases=2 granted=4 done=3 requeues=1"},
					// a was done: {c, a} is dropped whole and c leased again.
					{105 * ms, ret("x", 3, twoFailed("dropped: a was done")), "x:#5[c]/0", "exploring n=3 errors=0 frontier=0 leases=2 granted=5 done=3 requeues=1"},
					{106 * ms, ret("y", 4, failedRun("dropped: b was done")), "", ""},
					{107 * ms, ret("x", 5, &core.Report{Interleavings: 1}), "end[x y]", "done n=4 errors=0 frontier=0 leases=0 granted=5 done=4 requeues=1"},
				}...))
				return
			}
			// {c, a} hands back a subtree d of its own, leased to x while y
			// still holds b; the late {a, b} then overlaps both.
			r.run(append(lost, []row{
				{104 * ms, ret("x", 3, &core.Report{Interleavings: 2}, "d"), "x:#5[d]/0", ""},
				{105 * ms, ret("y", 4, &core.Report{Interleavings: 1}), "", "exploring n=4 errors=0 frontier=0 leases=1 granted=5 done=4 requeues=1"},
				{106 * ms, ret("x", 2, twoFailed("dropped: both were done")), "", "exploring n=4 errors=0 frontier=0 leases=1 granted=5 done=4 requeues=1"},
				{107 * ms, ret("x", 5, &core.Report{Interleavings: 1}), "end[x y]", "done n=5 errors=0 frontier=0 leases=0 granted=5 done=5 requeues=1"},
			}...))
		})
	}
}

// TestUntouchedRootHandedBackIsExploredLater: a lease may return before it
// reached every root (budget, time slice, a stopping worker). A root that
// comes back in the leftover frontier was not explored: it must not enter the
// done-set, and it must be leased again. The frontier here is small, so each
// grant is floored at all of it (dexplore's minLeaseRoots, the one slot being
// the only idle one): three leases, not one per subtree.
func TestUntouchedRootHandedBackIsExploredLater(t *testing.T) {
	r := newRig(t, leaseTestConfig(2*time.Second))
	r.run([]row{
		{0, join("partial", 1), "partial:#1[root]/1", ""},
		{1 * ms, ret("partial", 1, rootRun(), "a", "b", "d"), "partial:#2[a b d]/0", ""},
		// a explored, b and d not started.
		{2 * ms, ret("partial", 2, &core.Report{Interleavings: 1}, "b", "d"), "partial:#3[b d]/0", "exploring n=2 errors=0 frontier=0 leases=1 granted=3 done=2 requeues=0"},
		{3 * ms, ret("partial", 3, &core.Report{Interleavings: 2}), "end[partial]", "done n=4 errors=0 frontier=0 leases=0 granted=3 done=4 requeues=0"},
	})
}

// TestLeaseResultOverBudgetRejected: a budget is the machine's hold on the
// cap; a result claiming more replays than its lease allowed fails the
// exploration naming the worker and the lease, and is not merged.
func TestLeaseResultOverBudgetRejected(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	cfg.Fingerprint.MaxInterleavings = 10
	r := newRig(t, cfg)
	over := rootRun()
	over.Interleavings = 2
	r.run([]row{
		{0, join("greedy", 1), "greedy:#1[root]/1", ""},
		{1 * ms, ret("greedy", 1, over), "end[greedy]", "failed n=0 errors=0 frontier=0 leases=0 granted=1 done=0 requeues=0"},
	})
	r.wantErr("greedy", "lease 1", "2 replays on a budget of 1")
}

// TestNonRootLeaseCannotSetRootAggregates: FirstTrace, R* and the unsafe
// alerts describe the self-discovery run; only the lease over the root task
// may report them. So does a lease with no delta at all, or a negative count.
func TestNonRootLeaseCannotSetRootAggregates(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta func(r *rig) *dexplore.Checkpoint
		want  string
	}{
		{"first-trace", func(r *rig) *dexplore.Checkpoint {
			return r.delta(&core.Report{Interleavings: 1, FirstTrace: &core.RunTrace{}})
		}, "without holding the root"},
		{"wildcards", func(r *rig) *dexplore.Checkpoint {
			return r.delta(&core.Report{Interleavings: 1, WildcardsAnalyzed: 3})
		}, "without holding the root"},
		{"unsafe", func(r *rig) *dexplore.Checkpoint {
			return r.delta(&core.Report{Interleavings: 1, Unsafe: []core.UnsafeReport{{}}})
		}, "without holding the root"},
		{"no-delta", func(*rig) *dexplore.Checkpoint { return nil }, "has no delta"},
		{"negative", func(r *rig) *dexplore.Checkpoint {
			return r.delta(&core.Report{Interleavings: 1, DecisionPoints: -4})
		}, "negative count"},
		{"nothing-explored", func(r *rig) *dexplore.Checkpoint { return r.delta(&core.Report{}) }, "0 replays for 1 subtrees"},
		{"handed-back-twice", func(r *rig) *dexplore.Checkpoint {
			return r.delta(&core.Report{Interleavings: 1}, "kid", "kid")
		}, "twice"},
		{"other-space", func(r *rig) *dexplore.Checkpoint {
			fp := r.c.cfg.Fingerprint
			fp.Procs++
			return deltaOf(fp, &core.Report{Interleavings: 1})
		}, "procs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, leaseTestConfig(time.Second))
			r.run([]row{
				{0, join("impostor", 1), "impostor:#1[root]/1", ""},
				{1 * ms, ret("impostor", 1, rootRun(), "child"), "impostor:#2[child]/0", ""},
				{2 * ms, func(r *rig) any {
					return r.wire("impostor", &WireResult{Lease: 2, Keys: r.granted[2].Keys, Delta: tc.delta(r)})
				}, "end[impostor]", "failed n=1 errors=0 frontier=0 leases=0 granted=2 done=1 requeues=0"},
			})
			r.wantErr("impostor", "lease 2", tc.want)
		})
	}
}

// held is the first lease the machine holds for worker name, if any.
func (r *rig) held(name string) (wireTask, bool) {
	for _, l := range r.c.leases {
		if l.conn.name == name {
			return l.wireTask, true
		}
	}
	return wireTask{}, false
}

// TestStepIsAFunctionOfItsEvents: two fresh machines fed one event sequence —
// three workers, two leases lost to one tick, a cut after the requeue — take
// the same steps: which worker is granted first, the frontier's order after
// the requeue and the task order inside every cut all follow the events, not
// map iteration.
func TestStepIsAFunctionOfItsEvents(t *testing.T) {
	play := func() (steps []string, cuts []string) {
		cfg := leaseTestConfig(50 * ms)
		cfg.CheckpointPath, cfg.CheckpointEvery = "unused", 1
		r := newRig(t, cfg)
		step := func(at time.Duration, ev any) {
			acts := r.c.step(ev, r.start.Add(at))
			steps = append(steps, r.render(acts))
			for _, a := range acts {
				var ckp *dexplore.Checkpoint
				switch a := a.(type) {
				case actPeriodic:
					ckp = a.cut
				case actFinalize:
					ckp = a.cut
				}
				if ckp != nil {
					var b strings.Builder
					if err := ckp.Write(&b); err != nil {
						t.Fatal(err)
					}
					cuts = append(cuts, b.String())
				}
			}
		}
		ret := func(at time.Duration, name string, rep *core.Report, left ...string) {
			wt, ok := r.held(name)
			if !ok {
				t.Fatalf("%s holds no lease: %v", name, steps)
			}
			step(at, r.wire(name, &WireResult{Lease: wt.Lease, Keys: wt.Keys, Delta: r.delta(rep, left...)}))
		}
		for _, w := range []string{"w1", "w2", "w3"} {
			step(0, evAttach{r.worker(w, 1)})
		}
		ret(1*ms, "w1", rootRun(), "a", "b", "c", "d", "e", "f")
		step(2*ms, evSaved{})
		step(30*ms, evHeartbeat{r.worker("w1", 1)})
		step(52*ms, evTick{}) // w2's and w3's leases are lost
		if st := r.status(); !strings.Contains(st, "requeues=2") {
			t.Fatalf("one tick lost %s, want two leases: %v", st, steps)
		}
		wt, _ := r.held("w1")
		ret(53*ms, "w1", &core.Report{Interleavings: len(wt.Keys)}) // merged: a cut falls due
		step(54*ms, evSaved{})
		for at := 55 * ms; r.ended == 0; at += ms {
			for _, w := range []string{"w1", "w2", "w3"} {
				if wt, ok := r.held(w); ok && r.ended == 0 {
					ret(at, w, &core.Report{Interleavings: len(wt.Keys)})
				}
			}
		}
		return steps, cuts
	}
	steps, cuts := play()
	if len(cuts) < 3 {
		t.Fatalf("%d cuts, want the root's, the one after the requeue and the final one", len(cuts))
	}
	for i := 0; i < 20; i++ {
		again, againCuts := play()
		if strings.Join(again, "\n") != strings.Join(steps, "\n") {
			t.Fatalf("run %d took other steps:\n%s\nthen:\n%s", i, strings.Join(again, "\n"), strings.Join(steps, "\n"))
		}
		for j := range cuts {
			if againCuts[j] != cuts[j] {
				t.Fatalf("run %d: cut %d differs:\n%s\nthen:\n%s", i, j, againCuts[j], cuts[j])
			}
		}
	}
}

// trackerTimes reads the rate tracker's sample times (unexported: the
// tracker is another package's).
func trackerTimes(rt *dexplore.RateTracker) []time.Time {
	samples := reflect.ValueOf(rt).Elem().FieldByName("samples")
	out := make([]time.Time, samples.Len())
	for i := range out {
		out[i] = *(*time.Time)(unsafe.Pointer(samples.Index(i).FieldByName("t").UnsafeAddr()))
	}
	return out
}

// TestStatusSamplesInTimeOrder: /status readers and the progress monitor
// share one rate tracker, which needs its samples in time order; each reads
// the clock under the lock it observes under.
func TestStatusSamplesInTimeOrder(t *testing.T) {
	c, err := New(leaseTestConfig(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				if (g+i)%2 == 0 {
					c.Status()
				} else {
					c.progress()
				}
			}
		}()
	}
	wg.Wait()
	times := trackerTimes(c.rate)
	if len(times) < 8*300/2 {
		t.Fatalf("the tracker kept %d samples of %d", len(times), 8*300)
	}
	for i := 1; i < len(times); i++ {
		if times[i].Before(times[i-1]) {
			t.Fatalf("sample %d at %v precedes sample %d at %v", i, times[i], i-1, times[i-1])
		}
	}
}

// synth is a synthetic result for lease wt, drawn from bits: which roots it
// hands back, which of six shared subtrees k0…k5 it adds to them, one replay
// per completed root (plus an extra one, or a failure), and the root run's
// aggregates when it completed the root.
func (r *rig) synth(wt wireTask, bits int) *WireResult {
	rep := &core.Report{}
	var left []*core.SubtreeTask
	for i, key := range wt.Keys {
		if bits>>i&1 == 1 {
			left = append(left, wt.Tasks[i])
			continue
		}
		rep.Interleavings++
		if key == rootKey {
			rep.FirstTrace, rep.WildcardsAnalyzed = &core.RunTrace{}, 1
		}
	}
	for j := 0; j < 6; j++ {
		if bits>>(4+j)&1 == 1 {
			left = append(left, r.task(fmt.Sprint("k", j)))
		}
	}
	rep.Interleavings += bits >> 10 & 1
	if bits>>11&1 == 1 && rep.Interleavings > 0 {
		rep.Errors = []*core.InterleavingResult{{Err: fmt.Errorf("failure"), Decisions: core.NewDecisions()}}
	}
	return &WireResult{Lease: wt.Lease, Keys: wt.Keys, Delta: deltaOf(r.c.cfg.Fingerprint, rep, left...)}
}

// FuzzStep: the machine under any bounded sequence of events from three
// workers — attach, disconnect, heartbeat, a tick of the fake clock, a result
// for a held, an expired or an unknown lease, a duplicate delivery, a stop, a
// saved cut. After every step nothing has panicked, no more replays are
// merged than the cap allows, the frontier, the held leases and the done set
// are disjoint (but for a late result's roots, whose newer lease is dropped
// when it returns), no result over a done root changes the report, and the end
// comes at most once, last, with nothing after it.
func FuzzStep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 0, 0, 4, 0, 1, 3, 50, 0, 4, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 0, 4, 0, 0xf0, 4, 1, 0xf0, 4, 2, 0, 3, 45, 0, 5, 3, 0, 5, 4, 0x04, 7, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 0, 0x30, 2, 0, 0, 3, 30, 0, 3, 30, 0, 4, 1, 0x03, 1, 0, 0, 4, 0, 0, 8, 0, 0})
	const max, ttl = 12, 40 * ms
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*64 {
			prog = prog[:3*64]
		}
		cfg := leaseTestConfig(ttl)
		cfg.Fingerprint.MaxInterleavings = max
		cfg.CheckpointPath, cfg.CheckpointEvery = "unused", 3
		r := newRig(t, cfg, func(m *machine) { m.maxRoots, m.maxRedeliveries = 3, 2 })
		names := []string{"p", "q", "s"}
		var now time.Duration
		var last evResult
		lateDone := map[string]bool{} // done keys a late result completed under a newer lease
		ended := false
		for i := 0; i+2 < len(prog); i += 3 {
			op, a, bits := prog[i], int(prog[i+1]), int(prog[i+2])|int(prog[i+1])<<8
			name := names[a%3]
			var ev any
			switch op % 9 {
			case 0:
				if w := r.workers[name]; w != nil && w.gone {
					delete(r.workers, name) // a reconnect is a new session
				}
				ev = evAttach{r.worker(name, 1+a%2)}
			case 1:
				ev = evDisconnect{r.worker(name, 1)}
			case 2:
				ev = evHeartbeat{r.worker(name, 1)}
			case 3:
				now += time.Duration(a%64) * ms
				ev = evTick{}
			case 4: // a held lease returns, from its holder
				if len(r.c.leases) == 0 {
					continue
				}
				l := r.c.leases[a%len(r.c.leases)]
				last = r.c.decode(l.conn, r.synth(l.wireTask, bits))
				ev = last
			case 5: // any lease ever granted, or none, returns from anyone
				wt, ok := r.granted[uint64(a%(len(r.granted)+2))]
				if !ok {
					wt = wireTask{Lease: uint64(a), Keys: []string{taskKey(r.task(fmt.Sprint("k", a%6)))}, Tasks: []*core.SubtreeTask{r.task(fmt.Sprint("k", a%6))}}
				}
				last = r.wire(name, r.synth(wt, bits))
				ev = last
			case 6: // the last result, delivered again
				if last.res == nil {
					continue
				}
				ev = last
			case 7:
				ev = evStop{}
			case 8:
				ev = evSaved{}
			}
			res, isResult := ev.(evResult)
			wasHeld, doneBefore := false, false
			if isResult {
				wasHeld = slices.ContainsFunc(r.c.leases, func(l *lease) bool { return l.Lease == res.res.Lease && l.conn == res.w })
				for _, k := range res.res.Keys {
					doneBefore = doneBefore || r.c.keys[k]
				}
			}
			before := r.c.report.Interleavings
			acts := r.c.step(ev, r.start.Add(now))
			for j, act := range acts {
				if _, fin := act.(actFinalize); fin && j != len(acts)-1 {
					t.Fatalf("step %d: the end is followed by %v", i/3, acts[j+1:])
				}
			}
			if ended && len(acts) > 0 {
				t.Fatalf("step %d: %d actions after the end", i/3, len(acts))
			}
			r.render(acts)
			ended = r.ended > 0
			if r.ended > 1 {
				t.Fatalf("step %d: the end came twice", i/3)
			}
			if n := r.c.report.Interleavings; n > max {
				t.Fatalf("step %d: %d interleavings merged, cap %d", i/3, n, max)
			}
			if isResult && doneBefore && r.c.report.Interleavings != before {
				t.Fatalf("step %d: a result over a done root merged %d replays", i/3, r.c.report.Interleavings-before)
			}
			front := map[string]bool{}
			for _, p := range r.c.front.Tasks {
				if front[p.key] || r.c.keys[p.key] {
					t.Fatalf("step %d: frontier key %s is listed twice or done", i/3, p.key)
				}
				front[p.key] = true
			}
			held := map[string]bool{}
			for _, l := range r.c.leases {
				for _, k := range l.Keys {
					if held[k] || front[k] {
						t.Fatalf("step %d: held key %s is held twice or in the frontier", i/3, k)
					}
					if r.c.keys[k] && !lateDone[k] {
						if !isResult || wasHeld {
							t.Fatalf("step %d: held key %s is done", i/3, k)
						}
						lateDone[k] = true
					}
					held[k] = true
				}
			}
		}
	})
}

// TestPeriodicCutsOneAtATime: a cut falls due every CheckpointEvery merged
// replays, never while the last one is out — the next waits for saved, and
// what merges meanwhile counts toward it — and it is cut before the step's
// grants, written after them. Without a CheckpointEvery the clock decides,
// from the first event; the end's cut is the final one, not a periodic.
func TestPeriodicCutsOneAtATime(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	cfg.CheckpointPath, cfg.CheckpointEvery = "unused", 2
	newRig(t, cfg).run([]row{
		{0, join("w", 2), "w:#1[root]/1", ""},
		{1 * ms, ret("w", 1, rootRun(), "a", "b", "c", "d"), "w:#2[a b]/0,#3[c d]/0", ""},
		{2 * ms, ret("w", 2, &core.Report{Interleavings: 2}), "cut@3+2", ""},
		{3 * ms, ret("w", 3, &core.Report{Interleavings: 2}, "e", "f"), "w:#4[e]/0,#5[f]/0", ""},
		{4 * ms, func(*rig) any { return evSaved{} }, "", ""},
		{5 * ms, ret("w", 4, &core.Report{Interleavings: 1}, "g"), "w:#6[g]/0; cut@6+2", ""},
		{6 * ms, ret("w", 5, &core.Report{Interleavings: 1}), "", ""},
		{7 * ms, ret("w", 6, &core.Report{Interleavings: 1}), "end[w] cut@8+0", ""},
	})

	cfg.CheckpointEvery = 0
	r := newRig(t, cfg)
	r.c.cad.Interval = 100 * ms
	r.run([]row{
		{0, join("w", 1), "w:#1[root]/1", ""},
		{99 * ms, ret("w", 1, rootRun(), "a", "b"), "w:#2[a b]/0", ""},
		{100 * ms, ret("w", 2, &core.Report{Interleavings: 1}, "b"), "w:#3[b]/0; cut@2+1", ""},
		{101 * ms, func(*rig) any { return evSaved{} }, "", ""},
		{199 * ms, ret("w", 3, &core.Report{Interleavings: 1}, "c"), "w:#4[c]/0", ""},
		{200 * ms, ret("w", 4, &core.Report{Interleavings: 1}), "end[w] cut@4+0", ""},
	})
}

// TestFailedFinalCheckpointFailsTheJob: a one-shot exploration whose final
// checkpoint cannot be written ends failed, on /status as in Wait.
func TestFailedFinalCheckpointFailsTheJob(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	cfg.CheckpointPath = "unused"
	r := newRig(t, cfg)
	r.c.ckp.Save = func(*dexplore.Checkpoint, string) error { return errors.New("disk full") }
	r.c.apply(evAttach{r.worker("w", 1)})
	r.c.apply(r.wire("w", &WireResult{Lease: 1, Keys: []string{rootKey}, Delta: r.delta(rootRun())}))
	if got, want := r.status(), "failed n=1 errors=0 frontier=0 leases=0 granted=1 done=1 requeues=0"; got != want {
		t.Errorf("status %q, want %q", got, want)
	}
	if _, err := r.c.Wait(); err == nil || !strings.Contains(err.Error(), "writing final checkpoint: disk full") {
		t.Errorf("Wait: %v, want the final write's failure", err)
	}
}
