package dcoord

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
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
// spell leases by name, and remembers every lease granted, so a result can
// name one. A result reaches the machine as a worker's does: its leftovers
// hang from the lease's roots, and it is written by a frameWriter and read
// back by a frameReader.
type rig struct {
	t       *testing.T
	c       *Coordinator // built by New; only its machine and Status are used
	start   time.Time
	workers map[string]*workerConn
	names   map[string]string // subtree identity (see id) → name
	tasks   map[string]*core.SubtreeTask
	epochs  map[string]int // the epoch each name flips, numbered by first use
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
		names: map[string]string{id(&core.SubtreeTask{}): "root"}, tasks: map[string]*core.SubtreeTask{}, epochs: map[string]int{}, granted: map[uint64]wireTask{}}
}

// id is a subtree's identity in the rig: its decisions, and the walk of a
// walk step.
func id(t *core.SubtreeTask) string {
	return fmt.Sprintf("%s walk %d", t.Decisions, walk(t))
}

// task is the subtree called name, made on first use. A name's path says
// where it lies: "a.x" is below "a", and a name without a dot is a child of
// the root task. Each is its parent's child flipping an epoch no other name
// flips (within leaseTestConfig's three ranks), so two names nest only along
// their path. A last segment "s~2" makes the subtree a step of walk 2.
func (r *rig) task(name string) *core.SubtreeTask {
	if t, ok := r.tasks[name]; ok {
		return t
	}
	parent := &core.SubtreeTask{} // the root task
	if i := strings.LastIndex(name, "."); i >= 0 {
		parent = r.task(name[:i])
	}
	t := r.child(parent, name)
	r.tasks[name], r.names[id(t)] = t, name
	return t
}

// child is the subtree called name built below parent as a worker's search
// builds a child (core.SubtreeTask.FlipChild): flipping name's epoch.
func (r *rig) child(parent *core.SubtreeTask, name string) *core.SubtreeTask {
	n, ok := r.epochs[name]
	if !ok {
		n = len(r.epochs)
		r.epochs[name] = n
	}
	t := flipped(parent, n%3, uint64(n/3+1), (n+1)%3)
	if _, w, ok := strings.Cut(name[strings.LastIndex(name, ".")+1:], "~"); ok {
		walk, err := strconv.Atoi(w)
		if err != nil {
			r.t.Fatalf("subtree name %q: %v", name, err)
		}
		t.Sample = &core.SampleState{Walk: walk, Step: t.Depth}
	}
	return t
}

// handed is the subtree called name as a worker holding roots hands it back:
// a root itself, or, below the root its path runs through, built from the
// object the worker holds for that root; below none of them the rig's own,
// which hangs from no root of the lease.
func (r *rig) handed(roots []*core.SubtreeTask, name string) *core.SubtreeTask {
	own := r.task(name)
	for _, root := range roots {
		if id(root) == id(own) {
			return root
		}
	}
	i := strings.LastIndex(name, ".")
	if i < 0 {
		return own
	}
	parent := r.handed(roots, name[:i])
	if parent == r.task(name[:i]) {
		return own
	}
	return r.child(parent, name)
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
func drop(name string) evFn { return func(r *rig) any { return evDisconnect{r.worker(name, 1)} } }
func tick() evFn            { return func(*rig) any { return evTick{} } }

// ret returns lease id from name the way a worker does: rep the delta, left
// the named subtrees handed back; every root was started.
func ret(name string, id uint64, rep *core.Report, left ...string) evFn {
	return back(name, id, 0, rep, left...)
}

// back is ret for a lease whose first u roots were never started.
func back(name string, id uint64, u int, rep *core.Report, left ...string) evFn {
	return func(r *rig) any {
		wt, ok := r.granted[id]
		if !ok {
			r.t.Fatalf("no lease %d was granted", id)
		}
		return r.wire(name, &WireResult{Lease: id, Untouched: u, Delta: r.delta(wt, rep, left...)})
	}
}

// wire is name's result frame as the driver decodes it: written with the
// roots of the lease it answers (the granted lease's unless res names its
// own), as a worker writes it, and read back by a frameReader.
func (r *rig) wire(name string, res *WireResult) evResult {
	r.t.Helper()
	return r.from(r.worker(name, 1), res)
}

// from is wire for the result frame that arrives on w.
func (r *rig) from(w *workerConn, res *WireResult) evResult {
	r.t.Helper()
	if res.roots == nil {
		res.roots = r.granted[res.Lease].Tasks
	}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, &frame{Type: msgResult, Job: r.c.cfg.JobID, Result: res}); err != nil {
		r.t.Fatal(err)
	}
	fr, _, err := readFrame(&buf, maxFrameSize)
	if err != nil {
		r.t.Fatalf("result frame: %v", err)
	}
	return r.c.decode(w, fr.Result)
}

// delta is a worker's delta for lease wt: rep, and the named subtrees handed
// back from below its roots.
func (r *rig) delta(wt wireTask, rep *core.Report, left ...string) *dexplore.Checkpoint {
	tasks := make([]*core.SubtreeTask, len(left))
	for i, n := range left {
		tasks[i] = r.handed(wt.Tasks, n)
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

// render spells actions as "w:#id[names]/budget" for a task frame (one lease
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
				leases = append(leases, fmt.Sprintf("#%d[%s]/%d", wt.Lease, r.spell(wt.Tasks), wt.Budget))
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

// spell names subtrees, by the rig's name where it has one.
func (r *rig) spell(tasks []*core.SubtreeTask) string {
	var ns []string
	for _, t := range tasks {
		n, ok := r.names[id(t)]
		if !ok {
			n = id(t)
		}
		ns = append(ns, n)
	}
	return strings.Join(ns, " ")
}

// status renders the Status fields the lease protocol moves.
func (r *rig) status() string {
	st := r.c.Status()
	return fmt.Sprintf("%s n=%d errors=%d frontier=%d leases=%d granted=%d requeues=%d",
		st.State, st.Interleavings, st.Errors, st.FrontierDepth, st.ActiveLeases, st.LeasesGranted, st.Requeues)
}

// state renders what a result may change: the report's counts, the frontier
// and the held leases, by name.
func (r *rig) state() string {
	front := make([]*core.SubtreeTask, len(r.c.front.Tasks))
	for i, p := range r.c.front.Tasks {
		front[i] = p.task
	}
	out := fmt.Sprintf("n=%d errors=%d points=%d front[%s]", r.c.report.Interleavings, len(r.c.report.Errors), r.c.report.DecisionPoints, r.spell(front))
	for _, l := range r.c.leases {
		out += fmt.Sprintf(" %s:#%d[%s]", l.conn.name, l.Lease, r.spell(l.Tasks))
	}
	return out
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
		{0, join("silent", 1), "silent:#1[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=1 requeues=0"},
		{50 * ms, tick(), "", ""},
		{51 * ms, tick(), "silent:#2[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=2 requeues=1"},
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
	rows[len(rows)-1].st = "exploring n=0 errors=0 frontier=0 leases=1 granted=1 requeues=0"
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
	rows = append(rows, row{151 * ms, tick(), "wedged:#2[root]/1", "exploring n=0 errors=0 frontier=0 leases=1 granted=2 requeues=1"})
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
		{123 * ms, tick(), "end[blackhole]", "failed n=0 errors=0 frontier=0 leases=0 granted=3 requeues=3"},
	})
	r.wantErr("redelivery cap 2", "lost its lease 3 times")
}

// TestRedeliveryCountTravelsWithTheSubtree: the cap counts the leases one
// subtree lost, whichever leases and workers those were, and no other
// subtree's: a lease's untouched roots go back with their count, and the
// leftovers it hands back start at none.
func TestRedeliveryCountTravelsWithTheSubtree(t *testing.T) {
	r := newRig(t, leaseTestConfig(40*ms), func(m *machine) { m.maxRedeliveries = 1 })
	r.run([]row{
		{0, join("w", 1), "w:#1[root]/1", ""},
		{1 * ms, ret("w", 1, rootRun(), "a", "b"), "w:#2[a b]/0", ""},
		{42 * ms, tick(), "w:#3[a b]/0", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 requeues=1"},
		// b explored, a untouched: a has lost one lease, b.x none.
		{43 * ms, back("w", 3, 1, &core.Report{Interleavings: 1}, "b.x"), "w:#4[a b.x]/0", ""},
		{84 * ms, tick(), "end[w]", "failed n=2 errors=0 frontier=1 leases=0 granted=4 requeues=2"},
	})
	r.wantErr("task " + r.task("a").Decisions.String() + " lost its lease 2 times (redelivery cap 1)")
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
		{60 * ms, ret("finisher", 2, rootRun(), "c"), "sluggard:#3[c]/0", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 requeues=1"},
		// The sluggard's stale root result, with a forged error: dropped.
		{61 * ms, ret("sluggard", 1, failedRun("forged late-duplicate error")), "", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 requeues=1"},
		{62 * ms, ret("sluggard", 3, &core.Report{Interleavings: 1}), "end[sluggard finisher]", "done n=2 errors=0 frontier=0 leases=0 granted=3 requeues=1"},
	})
}

// TestOnlyAHeldLeaseMerges: a result merges only while the machine holds its
// lease for the connection it arrives on. One for a lease lost to expiry, to
// a disconnect, or held by another connection is dropped whole — report,
// frontier and leases stay as they were, and nothing is sent — however much it
// claims; the lost lease's roots were requeued, and their new lease merges.
func TestOnlyAHeldLeaseMerges(t *testing.T) {
	late := failedRun("must not be merged")
	late.Interleavings, late.DecisionPoints = 3, 7
	for _, tc := range []struct {
		name string
		lose []row // lose lease #2 over [a b c], which w held
		ev   evFn  // a result that must be dropped
	}{
		{"expired", []row{{52 * ms, tick(), "w:#3[a b c]/0", ""}}, ret("w", 2, late, "a.x")},
		{"disconnected", []row{{3 * ms, join("v", 1), "", ""}, {4 * ms, drop("w"), "v:#3[a b c]/0", ""}}, ret("w", 2, late, "a.x")},
		{"other-connection", []row{{3 * ms, join("v", 1), "", ""}, {4 * ms, drop("w"), "v:#3[a b c]/0", ""}}, ret("w", 3, late, "a.x")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, leaseTestConfig(50*ms), func(m *machine) { m.maxRedeliveries = 100 })
			r.run(append(grownTo(), tc.lose...))
			before := r.state()
			r.run([]row{{60 * ms, tc.ev, "", "exploring n=1 errors=0 frontier=0 leases=1 granted=3 requeues=1"}})
			if after := r.state(); after != before {
				t.Fatalf("a result for a lease not held changed the machine:\n%s\nwas\n%s", after, before)
			}
			holder := r.c.leases[0].conn.name
			r.run([]row{{61 * ms, ret(holder, 3, &core.Report{Interleavings: 3}), "end[" + holder + "]", "done n=4 errors=0 frontier=0 leases=0 granted=3 requeues=1"}})
			if r.c.runErr != nil || len(r.c.report.Errors) != 0 || r.c.report.DecisionPoints != 1 {
				t.Errorf("err %v, %d errors, %d decision points: the dropped result got in", r.c.runErr, len(r.c.report.Errors), r.c.report.DecisionPoints)
			}
		})
	}
}

// twoFailed is a two-replay delta with one failure.
func twoFailed(msg string) *core.Report {
	rep := failedRun(msg)
	rep.Interleavings = 2
	return rep
}

// TestOverlappingLateResultsCountOnce: a lease over {a, b} expires; its roots
// are leased again as {c, a} and {b}; then all three results arrive. Only the
// two held leases merge, whichever order they come in: the expired lease's
// result is dropped, before or after them. Every subtree is counted exactly
// once, and the dropped result's error does not get in.
func TestOverlappingLateResultsCountOnce(t *testing.T) {
	// The frontier was [c] when a and b came back: {c, a} goes to x, {b} to y.
	lost := []row{
		{0, join("x", 1), "x:#1[root]/1", ""},
		{1 * ms, ret("x", 1, rootRun(), "a", "b", "c"), "x:#2[a b]/0", ""},
		{102 * ms, tick(), "x:#3[c a]/0", ""},
		{103 * ms, join("y", 1), "y:#4[b]/0", "exploring n=1 errors=0 frontier=0 leases=2 granted=4 requeues=1"},
	}
	for _, lateFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("late-first=%v", lateFirst), func(t *testing.T) {
			r := newRig(t, leaseTestConfig(100*ms), func(m *machine) { m.maxRedeliveries, m.maxRoots = 100, 2 })
			if lateFirst {
				r.run(append(lost, []row{
					{104 * ms, ret("x", 2, twoFailed("dropped: its lease was lost")), "", "exploring n=1 errors=0 frontier=0 leases=2 granted=4 requeues=1"},
					{105 * ms, ret("x", 3, &core.Report{Interleavings: 2}), "", "exploring n=3 errors=0 frontier=0 leases=1 granted=4 requeues=1"},
					{106 * ms, ret("y", 4, &core.Report{Interleavings: 1}), "end[x y]", "done n=4 errors=0 frontier=0 leases=0 granted=4 requeues=1"},
				}...))
				return
			}
			// {c, a} hands back a subtree a.d of its own, leased to x while y
			// still holds b; the late {a, b} then overlaps both.
			r.run(append(lost, []row{
				{104 * ms, ret("x", 3, &core.Report{Interleavings: 2}, "a.d"), "x:#5[a.d]/0", ""},
				{105 * ms, ret("y", 4, &core.Report{Interleavings: 1}), "", "exploring n=4 errors=0 frontier=0 leases=1 granted=5 requeues=1"},
				{106 * ms, ret("x", 2, twoFailed("dropped: its lease was lost")), "", "exploring n=4 errors=0 frontier=0 leases=1 granted=5 requeues=1"},
				{107 * ms, ret("x", 5, &core.Report{Interleavings: 1}), "end[x y]", "done n=5 errors=0 frontier=0 leases=0 granted=5 requeues=1"},
			}...))
		})
	}
}

// TestUntouchedRootHandedBackIsExploredLater: a lease may return before it
// reached every root (budget, time slice, a stopping worker). A worker starts
// a lease's roots from the last, so the ones it did not start are a prefix,
// which it names by count. Those were not explored: they must be leased
// again. The frontier here is small, so each grant is floored at all of it
// (dexplore's minLeaseRoots, the one slot being the only idle one): three
// leases, not one per subtree.
func TestUntouchedRootHandedBackIsExploredLater(t *testing.T) {
	r := newRig(t, leaseTestConfig(2*time.Second))
	r.run([]row{
		{0, join("partial", 1), "partial:#1[root]/1", ""},
		{1 * ms, ret("partial", 1, rootRun(), "a", "b", "d"), "partial:#2[a b d]/0", ""},
		// d explored, a and b not started.
		{2 * ms, back("partial", 2, 2, &core.Report{Interleavings: 1}), "partial:#3[a b]/0", "exploring n=2 errors=0 frontier=0 leases=1 granted=3 requeues=0"},
		{3 * ms, ret("partial", 3, &core.Report{Interleavings: 2}), "end[partial]", "done n=4 errors=0 frontier=0 leases=0 granted=3 requeues=0"},
	})
}

// grownTo is the rows that lease the root to one one-slot worker w and get
// lease #2 over [a b c] back from it.
func grownTo() []row {
	return []row{
		{0, join("w", 1), "w:#1[root]/1", ""},
		{1 * ms, ret("w", 1, rootRun(), "a", "b", "c"), "w:#2[a b c]/0", ""},
	}
}

// TestUntouchedCountRebuildsRoots: a held lease's untouched roots come back
// from the lease itself — no decode — ahead of the result's leftovers and in
// lease order, and only the roots past them are done.
func TestUntouchedCountRebuildsRoots(t *testing.T) {
	for _, tc := range []struct {
		u     int
		rep   *core.Report
		left  []string
		grant string
	}{
		{0, &core.Report{Interleavings: 3}, []string{"a.x"}, "w:#3[a.x]/0"},
		{1, &core.Report{Interleavings: 2}, []string{"b.x", "c.y"}, "w:#3[a b.x c.y]/0"},
		{2, &core.Report{Interleavings: 1}, []string{"c.x"}, "w:#3[a b c.x]/0"},
		{3, &core.Report{}, nil, "w:#3[a b c]/0"},
	} {
		t.Run(fmt.Sprint("untouched=", tc.u), func(t *testing.T) {
			r := newRig(t, leaseTestConfig(time.Second))
			r.run(append(grownTo(),
				row{2 * ms, back("w", 2, tc.u, tc.rep, tc.left...), tc.grant,
					fmt.Sprintf("exploring n=%d errors=0 frontier=0 leases=1 granted=3 requeues=0", 1+tc.rep.Interleavings)}))
		})
	}
}

// TestUntouchedCountHasOneForm: an untouched count outside the lease, or a
// leased root handed back in the delta's frontier (the form before the
// count), fails the exploration naming the worker and the lease, and merges
// nothing: a result's table has no task for a lease root itself.
func TestUntouchedCountHasOneForm(t *testing.T) {
	for _, tc := range []struct {
		name string
		u    int
		left []string
		want string
	}{
		{"negative", -1, nil, "counts -1 of its 3 roots untouched"},
		{"past-the-lease", 4, nil, "counts 4 of its 3 roots untouched"},
		{"root-in-frontier", 1, []string{"b.x", "c"}, "task 1 is lease root 2 itself"},
		{"untouched-root-in-frontier", 1, []string{"a"}, "task 0 is lease root 0 itself"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, leaseTestConfig(time.Second))
			r.run(append(grownTo(),
				row{2 * ms, back("w", 2, tc.u, &core.Report{Interleavings: 1}, tc.left...), "end[w]",
					"failed n=1 errors=0 frontier=0 leases=0 granted=2 requeues=0"}))
			r.wantErr("worker w", "lease 2", tc.want)
		})
	}
}

// TestLeftoverChecksNeedNoKeys: a held lease's leftovers are vetted by their
// decisions alone — each strictly below a root its worker started, none
// listed twice — so a result that hands back a subtree from anywhere else
// fails the exploration, naming the worker and the lease, and merges nothing.
// A subtree below no root of the lease has no root to hang from in the
// result's table, whose reader refuses it; one listed twice is named. Here w
// holds lease #4 over c, v holds #3 over b, a is explored and d waits; then w
// returns #4.
func TestLeftoverChecksNeedNoKeys(t *testing.T) {
	setup := []row{
		{0, join("w", 1), "w:#1[root]/1", ""},
		{1 * ms, ret("w", 1, rootRun(), "a", "b", "c", "d"), "w:#2[a]/0", ""},
		{2 * ms, join("v", 1), "v:#3[b]/0", ""},
		{3 * ms, ret("w", 2, &core.Report{Interleavings: 1}), "w:#4[c]/0", "exploring n=2 errors=0 frontier=1 leases=2 granted=4 requeues=0"},
	}
	const below = "hangs from no lease root"
	for _, tc := range []struct {
		name string
		left []string
		bad  string // the leftover the error names, if it names one
		want string
	}{
		{"waiting", []string{"d"}, "", below},
		{"held-by-another-lease", []string{"c.x", "b"}, "", below},
		{"explored", []string{"a"}, "", below},
		{"fabricated", []string{"b.z"}, "", below},
		{"twice", []string{"c.x", "c.y", "c.x"}, "c.x", "twice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t, leaseTestConfig(time.Second), func(m *machine) { m.maxRoots = 1 })
			r.run(setup)
			r.run([]row{{4 * ms, ret("w", 4, &core.Report{Interleavings: 1}, tc.left...), "", "failed n=2 errors=0 frontier=1 leases=1 granted=4 requeues=0"}})
			if got, want := r.state(), "n=2 errors=0 points=1 front[d] v:#3[b]"; got != want {
				t.Errorf("after the failed result: %s, want %s", got, want)
			}
			r.wantErr("worker w", "lease 4", tc.want)
			if tc.bad != "" {
				r.wantErr("hands back subtree " + r.task(tc.bad).Decisions.String())
			}
		})
	}
}

// TestWalkStepComesFromItsWalk: a walk step may be handed back from below the
// root task, which seeds every walk, or from below a step of its own walk; a
// step of walk 2 from below a step of walk 1 fails the exploration naming
// the worker and the lease. Two walks and the exhaustive search may all reach
// one decision set: those are three subtrees, not one listed three times.
func TestWalkStepComesFromItsWalk(t *testing.T) {
	for _, tc := range []struct {
		left string
		want string // the error; "" for a result that merges
	}{
		{"s~1.t~1", ""},
		{"s~1.t~2", "hands back subtree %s, which is not below its root 4"},
	} {
		t.Run(tc.left, func(t *testing.T) {
			r := newRig(t, leaseTestConfig(time.Second))
			a := r.task("a")
			twin := func(walk int) *core.SubtreeTask { // a's set, another object
				t := r.child(&core.SubtreeTask{}, "a")
				t.Sample = &core.SampleState{Walk: walk, Step: 1}
				return t
			}
			leftovers := []*core.SubtreeTask{r.task("u~2"), a, twin(1), twin(2), r.task("s~1")}
			r.run([]row{
				{0, join("w", 1), "w:#1[root]/1", ""},
				{1 * ms, func(r *rig) any {
					return r.wire("w", &WireResult{Lease: 1, Delta: deltaOf(r.c.cfg.Fingerprint, rootRun(), leftovers...)})
				}, fmt.Sprintf("w:#2[u~2 a %s %s s~1]/0", id(twin(1)), id(twin(2))), "exploring n=1 errors=0 frontier=0 leases=1 granted=2 requeues=0"},
			})
			// u~2, a and the twins untouched, s~1 explored.
			r.c.step(r.wire("w", &WireResult{Lease: 2, Untouched: 4, Delta: r.delta(r.granted[2], &core.Report{Interleavings: 1}, tc.left)}), r.start.Add(2*ms))
			if tc.want == "" {
				if r.c.runErr != nil || r.c.report.Interleavings != 2 {
					t.Fatalf("err %v, %d replays: want the step of its own walk merged", r.c.runErr, r.c.report.Interleavings)
				}
				return
			}
			if r.c.report.Interleavings != 1 {
				t.Errorf("%d replays merged from a failed result", r.c.report.Interleavings-1)
			}
			r.wantErr("worker w", "lease 2", fmt.Sprintf(tc.want, r.task(tc.left).Decisions))
		})
	}
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
		{1 * ms, ret("greedy", 1, over), "end[greedy]", "failed n=0 errors=0 frontier=0 leases=0 granted=1 requeues=0"},
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
			return r.delta(r.granted[2], &core.Report{Interleavings: 1, FirstTrace: &core.RunTrace{}})
		}, "without holding the root"},
		{"wildcards", func(r *rig) *dexplore.Checkpoint {
			return r.delta(r.granted[2], &core.Report{Interleavings: 1, WildcardsAnalyzed: 3})
		}, "without holding the root"},
		{"unsafe", func(r *rig) *dexplore.Checkpoint {
			return r.delta(r.granted[2], &core.Report{Interleavings: 1, Unsafe: []core.UnsafeReport{{}}})
		}, "without holding the root"},
		{"no-delta", func(*rig) *dexplore.Checkpoint { return nil }, "has no delta"},
		{"negative", func(r *rig) *dexplore.Checkpoint {
			return r.delta(r.granted[2], &core.Report{Interleavings: 1, DecisionPoints: -4})
		}, "negative count"},
		{"nothing-explored", func(r *rig) *dexplore.Checkpoint { return r.delta(r.granted[2], &core.Report{}) }, "0 replays for 1 subtrees"},
		{"handed-back-twice", func(r *rig) *dexplore.Checkpoint {
			return r.delta(r.granted[2], &core.Report{Interleavings: 1}, "child.kid", "child.kid")
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
					return r.wire("impostor", &WireResult{Lease: 2, Delta: tc.delta(r)})
				}, "end[impostor]", "failed n=1 errors=0 frontier=0 leases=0 granted=2 requeues=0"},
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
			step(at, r.wire(name, &WireResult{Lease: wt.Lease, Delta: r.delta(wt, rep, left...)}))
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
		ret(53*ms, "w1", &core.Report{Interleavings: len(wt.Tasks)}) // merged: a cut falls due
		step(54*ms, evSaved{})
		for at := 55 * ms; r.ended == 0; at += ms {
			for _, w := range []string{"w1", "w2", "w3"} {
				if wt, ok := r.held(w); ok && r.ended == 0 {
					ret(at, w, &core.Report{Interleavings: len(wt.Tasks)})
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

// synth is a synthetic result for lease wt, drawn from bits: how many of its
// roots it leaves untouched (bits 0–1, negated by bit 3: out of range as
// often as not on a short lease), whether it also lists its last root in its
// frontier (bit 2, the form the count replaced), which of six subtrees k0…k5
// it hands back (bits 4–9: kj below its last started root, or a child of the
// root task when bit 12 is set or it started none, and listed twice when bit
// 13 is set), one replay per root past the untouched ones (plus an extra one,
// bit 10, or a failure, bit 11), and the root run's aggregates when it
// started the root. Its leftovers hang from wt's roots, as a worker's do.
func (r *rig) synth(wt wireTask, bits int) *WireResult {
	u := bits & 3
	if bits>>3&1 == 1 {
		u = -u
	}
	rep := &core.Report{}
	var left []*core.SubtreeTask
	parent := ""
	for i, t := range wt.Tasks {
		if i < u {
			continue
		}
		rep.Interleavings++
		if isRoot(t) {
			rep.FirstTrace, rep.WildcardsAnalyzed = &core.RunTrace{}, 1
		} else {
			parent = r.names[id(t)] + "."
		}
	}
	if bits>>2&1 == 1 && len(wt.Tasks) > 0 {
		left = append(left, wt.Tasks[len(wt.Tasks)-1])
	}
	for j := 0; j < 6; j++ {
		if bits>>(4+j)&1 == 1 {
			name := fmt.Sprint("k", j)
			if bits>>12&1 == 0 {
				name = parent + name
			}
			left = append(left, r.handed(wt.Tasks, name))
			if bits>>13&1 == 1 {
				left = append(left, r.handed(wt.Tasks, name))
			}
		}
	}
	rep.Interleavings += bits >> 10 & 1
	if bits>>11&1 == 1 && rep.Interleavings > 0 {
		rep.Errors = []*core.InterleavingResult{{Err: fmt.Errorf("failure"), Decisions: core.NewDecisions()}}
	}
	return &WireResult{Lease: wt.Lease, Untouched: u, Delta: deltaOf(r.c.cfg.Fingerprint, rep, left...), roots: wt.Tasks}
}

// FuzzStep: the machine under any bounded sequence of events from three
// workers — attach, disconnect, heartbeat, a tick of the fake clock, a result
// for a held, an expired or an unknown lease, a duplicate delivery, a stop, a
// saved cut. After every step nothing has panicked, no more replays are
// merged than the cap allows, a result for a lease not held (by its id and
// connection) changed nothing, each subtree is in exactly one place — the
// frontier, one held lease, or merged (while the exploration has not failed,
// which drops what it held) — and the end comes at most once, last, with
// nothing after it.
func FuzzStep(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 4, 0, 0, 4, 0, 1, 3, 50, 0, 4, 0, 0, 6, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 2, 0, 4, 0, 0xf0, 4, 1, 0xf0, 4, 2, 0, 3, 45, 0, 5, 3, 0, 5, 4, 0x04, 7, 0, 0})
	f.Add([]byte{0, 0, 0, 4, 0, 0x30, 2, 0, 0, 3, 30, 0, 3, 30, 0, 4, 1, 0x03, 1, 0, 0, 4, 0, 0, 8, 0, 0})
	// Untouched counts out of range: 3 of the root lease's one root, -1 of a
	// lease over k0…k3, and a leased root listed in the frontier.
	f.Add([]byte{0, 0, 0, 4, 0, 0x03})
	f.Add([]byte{0, 0, 0, 4, 0, 0xf0, 4, 0, 0x09})
	f.Add([]byte{0, 1, 0, 4, 0, 0xf0, 4, 0, 0x05})
	// A leftover below no started root, and one listed twice.
	f.Add([]byte{0, 0, 0, 4, 0, 0x30, 4, 0x10, 0x10})
	f.Add([]byte{0, 0, 0, 4, 0, 0x30, 4, 0x20, 0x10})
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
		// Every subtree the machine was given, and whether it was merged.
		known := map[string]bool{id(&core.SubtreeTask{}): false}
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
				last = r.from(l.conn, r.synth(l.wireTask, bits))
				ev = last
			case 5: // any lease ever granted, or none, returns from anyone
				wt, ok := r.granted[uint64(a%(len(r.granted)+2))]
				if !ok {
					wt = wireTask{Lease: uint64(a), Tasks: []*core.SubtreeTask{r.task(fmt.Sprint("k", a%6))}}
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
			var heldLease *lease
			if isResult {
				if j := slices.IndexFunc(r.c.leases, func(l *lease) bool { return l.Lease == res.res.Lease && l.conn == res.w }); j >= 0 {
					heldLease = r.c.leases[j]
				}
			}
			before := r.state()
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
			// It may take a periodic cut that fell due before it, nothing else.
			grew := slices.ContainsFunc(acts, func(a any) bool { _, cut := a.(actPeriodic); return !cut })
			if isResult && heldLease == nil && (grew || r.state() != before) {
				t.Fatalf("step %d: a result for lease %d, not held, changed the machine (%s):\n%s\nwas\n%s", i/3, res.res.Lease, r.render(acts), r.state(), before)
			}
			failed := r.c.runErr != nil
			if heldLease != nil && !failed {
				// Merged: the roots it started are done, its leftovers new.
				for _, t := range heldLease.Tasks[res.res.Untouched:] {
					known[id(t)] = true
				}
				for _, lt := range res.left {
					if _, had := known[id(lt)]; had {
						t.Fatalf("step %d: a merged result handed back subtree %s, which the machine had", i/3, id(lt))
					}
					known[id(lt)] = false
				}
			}
			where := map[string]int{}
			for _, p := range r.c.front.Tasks {
				where[id(p.task)]++
			}
			for _, l := range r.c.leases {
				for _, t := range l.Tasks {
					where[id(t)]++
				}
			}
			for k, n := range where {
				merged, ok := known[k]
				if n > 1 || !failed && (!ok || merged) {
					t.Fatalf("step %d: subtree %s (known %v, merged %v) is waiting or held %d times", i/3, k, ok, merged, n)
				}
			}
			for k, merged := range known {
				if !failed && !merged && where[k] == 0 {
					t.Fatalf("step %d: subtree %s is lost: neither merged, waiting nor held", i/3, k)
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
		{3 * ms, ret("w", 3, &core.Report{Interleavings: 2}, "c.e", "d.f"), "w:#4[c.e]/0,#5[d.f]/0", ""},
		{4 * ms, func(*rig) any { return evSaved{} }, "", ""},
		{5 * ms, ret("w", 4, &core.Report{Interleavings: 1}, "c.e.g"), "w:#6[c.e.g]/0; cut@6+2", ""},
		{6 * ms, ret("w", 5, &core.Report{Interleavings: 1}), "", ""},
		{7 * ms, ret("w", 6, &core.Report{Interleavings: 1}), "end[w] cut@8+0", ""},
	})

	cfg.CheckpointEvery = 0
	r := newRig(t, cfg)
	r.c.cad.Interval = 100 * ms
	r.run([]row{
		{0, join("w", 1), "w:#1[root]/1", ""},
		{99 * ms, ret("w", 1, rootRun(), "a", "b"), "w:#2[a b]/0", ""},
		{100 * ms, back("w", 2, 1, &core.Report{Interleavings: 1}), "w:#3[a]/0; cut@2+1", ""},
		{101 * ms, func(*rig) any { return evSaved{} }, "", ""},
		{199 * ms, ret("w", 3, &core.Report{Interleavings: 1}, "a.c"), "w:#4[a.c]/0", ""},
		{200 * ms, ret("w", 4, &core.Report{Interleavings: 1}), "end[w] cut@4+0", ""},
	})
}

// TestClockCadenceCutsExactly: without a CheckpointEvery a periodic cut
// falls due at the first merge an interval after the start or the last cut,
// on the events' clock — so on any host a lease merged every 3ms under a 5ms
// interval is cut at every second merge (6ms, 12ms, ...): 20 cuts for 40
// merges, at least an interval apart, and a due cut at the end is the final
// one instead.
func TestClockCadenceCutsExactly(t *testing.T) {
	const interval, every, merges = 5 * ms, 3 * ms, 40
	cfg := leaseTestConfig(time.Second)
	cfg.CheckpointPath = "unused"
	r := newRig(t, cfg)
	r.c.cad.Interval = interval
	r.render(r.c.step(evAttach{r.worker("w", 1)}, r.start))
	periodic, path := 0, "x"
	for k := 1; k <= merges+1; k++ {
		wt, ok := r.held("w")
		if !ok {
			t.Fatalf("merge %d: w holds no lease", k)
		}
		var left []string
		if k <= merges {
			left, path = []string{path}, path+".x"
		}
		at := r.start.Add(time.Duration(k) * every)
		acts := r.c.step(r.wire("w", &WireResult{Lease: wt.Lease, Delta: r.delta(wt, &core.Report{Interleavings: 1}, left...)}), at)
		for _, a := range acts {
			if _, cut := a.(actPeriodic); cut {
				if k%2 != 0 {
					t.Errorf("merge %d at %v cut, %v after the last", k, time.Duration(k)*every, every)
				}
				periodic++
				r.c.step(evSaved{}, at)
			}
		}
		r.render(acts)
	}
	if r.ended != 1 || r.c.report.Interleavings != merges+1 {
		t.Fatalf("ended %d times after %d merges, want once after %d", r.ended, r.c.report.Interleavings, merges+1)
	}
	if most := int((merges + 1) * every / interval); periodic != merges/2 || periodic > most {
		t.Errorf("%d periodic cuts, want %d (%d at most)", periodic, merges/2, most)
	}
}

// TestFailedFinalCheckpointFailsTheJob: a one-shot exploration whose final
// checkpoint cannot be written ends failed, on /status as in Wait.
func TestFailedFinalCheckpointFailsTheJob(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	cfg.CheckpointPath = "unused"
	r := newRig(t, cfg)
	r.c.ckp.Save = func(*dexplore.Checkpoint, string) error { return errors.New("disk full") }
	r.c.apply(evAttach{r.worker("w", 1)})
	wt, _ := r.held("w")
	r.c.apply(r.wire("w", &WireResult{Lease: wt.Lease, Delta: r.delta(wt, rootRun()), roots: wt.Tasks}))
	if got, want := r.status(), "failed n=1 errors=0 frontier=0 leases=0 granted=1 requeues=0"; got != want {
		t.Errorf("status %q, want %q", got, want)
	}
	if _, err := r.c.Wait(); err == nil || !strings.Contains(err.Error(), "writing final checkpoint: disk full") {
		t.Errorf("Wait: %v, want the final write's failure", err)
	}
}
