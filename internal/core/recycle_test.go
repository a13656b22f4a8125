package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dampi/internal/leak"
	"dampi/internal/trace"
	"dampi/mpi"
	"dampi/workloads/adlb"
)

// identityRecorder is a tool layer that follows every request from its Post
// hook to its Complete hook by (pointer, identity), where the identity is the
// request's String (kind, world-unique id, peer, tag, communicator).
type identityRecorder struct {
	t        *testing.T
	mu       sync.Mutex
	live     map[*mpi.Request]string // posted, completion not yet observed
	seen     map[string]bool         // every identity ever posted
	recycled int                     // posts on a pointer that carried another identity before
	used     map[*mpi.Request]bool   // pointers that carried an identity already
}

func newIdentityRecorder(t *testing.T) *identityRecorder {
	return &identityRecorder{
		t: t, live: make(map[*mpi.Request]string),
		seen: make(map[string]bool), used: make(map[*mpi.Request]bool),
	}
}

func (r *identityRecorder) posted(req *mpi.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := req.String()
	if old, ok := r.live[req]; ok {
		r.t.Errorf("request %p reissued as %s while %s is still live", req, id, old)
	}
	if r.seen[id] {
		r.t.Errorf("identity %s posted twice", id)
	}
	if r.used[req] {
		r.recycled++
	}
	r.used[req] = true
	r.seen[id] = true
	r.live[req] = id
}

func (r *identityRecorder) completed(req *mpi.Request) {
	r.mu.Lock()
	defer r.mu.Unlock()
	id, ok := r.live[req]
	if !ok {
		r.t.Errorf("Complete for %s, which was never posted or already completed", req)
		return
	}
	if got := req.String(); got != id {
		r.t.Errorf("request %p posted as %s completed as %s", req, id, got)
	}
	delete(r.live, req)
}

func (r *identityRecorder) hooks() *mpi.Hooks {
	return &mpi.Hooks{
		PostSend: func(_ *mpi.Proc, _ *mpi.SendOp, req *mpi.Request) { r.posted(req) },
		PostRecv: func(_ *mpi.Proc, _ *mpi.RecvOp, req *mpi.Request) { r.posted(req) },
		Complete: func(_ *mpi.Proc, req *mpi.Request, _ mpi.Status) { r.completed(req) },
	}
}

// TestRecycledRequestsKeepDistinctIdentities: under the full verifier stack
// (core.Tool over leak.Tracker over trace.Stats), a recycled request is never
// seen by a PostSend/PostRecv/Complete hook under the identity it had before
// it was freed, no request is reissued before its Complete hook ran, and the
// layers that key on the pointer (leak tracking) stay exact.
func TestRecycledRequestsKeepDistinctIdentities(t *testing.T) {
	const procs = 4
	var rec *identityRecorder
	var leaks *leak.Tracker
	var stats *trace.Stats
	cfg := &ExplorerConfig{
		Procs:   procs,
		Program: adlb.Program(adlb.DriverConfig{}),
		ExtraHooks: func() []*mpi.Hooks {
			rec, leaks, stats = newIdentityRecorder(t), leak.NewTracker(), trace.NewStats(procs)
			return []*mpi.Hooks{leaks.Hooks(), stats.Hooks(), rec.hooks()}
		},
	}
	rc := NewRunContext(cfg)
	defer rc.Close()
	var decisions *Decisions
	for run := 0; run < 5; run++ { // later runs start on recycled storage
		_, res, err := rc.Run(decisions)
		if err != nil || res.Err != nil {
			t.Fatalf("run %d: %v / %v", run, err, res.Err)
		}
		decisions = res.Decisions
		if len(rec.live) != 0 {
			t.Errorf("run %d: %d requests never completed: %v", run, len(rec.live), rec.live)
		}
		if rec.recycled == 0 {
			t.Errorf("run %d: no request was recycled; the test exercises nothing", run)
		}
		if rep := leaks.Report(); rep.HasRequestLeak() {
			t.Errorf("run %d: leak tracker confused by recycling: %v", run, rep.RequestLeaks)
		}
		if got, want := int(stats.Totals().SendRecv), len(rec.seen); got < want {
			t.Errorf("run %d: trace layer counted %d send/recv ops, recorder saw %d", run, got, want)
		}
	}
}

// TestRunContextReuseAfterFailedRun: a replay slot whose previous world
// ended in deadlock — messages queued, receives posted, piggybacks unpaired —
// produces, on the storage that world left behind, the same trace as a fresh
// slot.
func TestRunContextReuseAfterFailedRun(t *testing.T) {
	const procs = 4
	healthy := fanInProgram(procs, 2)
	var fail atomic.Bool
	cfg := &ExplorerConfig{Procs: procs, Program: func(p *mpi.Proc) error {
		if !fail.Load() {
			return healthy(p)
		}
		c := p.CommWorld()
		if p.Rank() != 0 {
			for tag := 0; tag < 3; tag++ { // queued at rank 0, never received
				if err := p.Send(0, tag, []byte("stale"), c); err != nil {
					return err
				}
			}
		}
		_, _, err := p.Recv(mpi.AnySource, 99, c) // everyone: deadlock
		return err
	}}
	render := func(rc *RunContext, d *Decisions) string {
		tr, res, err := rc.Run(d)
		if err != nil || res.Err != nil {
			t.Fatalf("healthy run: %v / %v", err, res.Err)
		}
		b, err := json.Marshal(tr)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%s\n%v", b, res)
	}

	fresh := NewRunContext(cfg)
	defer fresh.Close()
	_, self, err := fresh.Run(nil)
	if err != nil || self.Err != nil {
		t.Fatalf("self run: %v / %v", err, self.Err)
	}
	fresh2 := NewRunContext(cfg)
	defer fresh2.Close()
	want := render(fresh2, self.Decisions)

	reused := NewRunContext(cfg)
	defer reused.Close()
	render(reused, self.Decisions) // warm: the failed world runs on carried storage too
	fail.Store(true)
	_, res, err := reused.Run(self.Decisions)
	var re *mpi.RunError
	if err != nil || !errors.As(res.Err, &re) || re.Deadlock == nil {
		t.Fatalf("failing run: %v / %v, want a deadlock", err, res.Err)
	}
	fail.Store(false)
	for round := 0; round < 3; round++ {
		if got := render(reused, self.Decisions); got != want {
			t.Fatalf("round %d after a deadlocked world:\n got %s\nwant %s", round, got, want)
		}
	}
}

// TestWildcardFreeTraceKeepsNilEpochs: a run with no epochs serializes as
// "epochs":null, as it did before the trace was built from backing arrays.
func TestWildcardFreeTraceKeepsNilEpochs(t *testing.T) {
	rc := NewRunContext(&ExplorerConfig{Procs: 2, Program: func(p *mpi.Proc) error {
		return p.Barrier(p.CommWorld())
	}})
	defer rc.Close()
	tr, res, err := rc.Run(nil)
	if err != nil || res.Err != nil {
		t.Fatalf("run: %v / %v", err, res.Err)
	}
	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Epochs != nil || !strings.Contains(string(b), `"epochs":null`) {
		t.Errorf("wildcard-free trace: Epochs=%v, json %s", tr.Epochs, b)
	}
}

// rankCoroutines counts the goroutines running an mpi rank coroutine.
func rankCoroutines() int {
	buf := make([]byte, 4<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "dampi/mpi.(*runner).loop(")
}

// TestRunContextOwnsItsRankCoroutines pins the Close contract where it is
// stated: a bare Run leaves the context's rank coroutines parked for the next
// run (that is the point of carrying them), Close stops exactly those, and
// the two entry points that own a context — Explore and ExecuteRun — return
// with none running. It counts the coroutines themselves, over those that
// earlier tests of the package left parked for good: differences of
// runtime.NumGoroutine failed once in ~2 000 runs under -race at GOMAXPROCS=2
// ("-1 goroutines outlive ExecuteRun", "holds 3 parked coroutines, want 4"),
// every time with the previous test's tRunner goroutine — past signalling its
// parent, not yet gone — counted in the baseline.
func TestRunContextOwnsItsRankCoroutines(t *testing.T) {
	const procs = 4
	cfg := &ExplorerConfig{Procs: procs, Program: fanInProgram(procs, 1), MixingBound: Unbounded}
	baseline := rankCoroutines()
	over := func() int { return rankCoroutines() - baseline }

	rc := NewRunContext(cfg)
	defer rc.Close()
	for run := 0; run < 3; run++ {
		if _, res, err := rc.Run(nil); err != nil || res.Err != nil {
			t.Fatalf("run: %v / %v", err, res.Err)
		}
		if got := over(); got != procs {
			t.Fatalf("after run %d the context holds %d parked coroutines, want %d", run, got, procs)
		}
	}
	rc.Close()
	rc.Close()
	if got := over(); got != 0 {
		t.Fatalf("%d coroutines outlive Close", got)
	}

	rep, _, _, err := rc.Explore([]*SubtreeTask{RootTask(cfg)}, 0, true, nil)
	if err != nil || rep.Interleavings != 6 {
		t.Fatalf("Explore on a closed context: %+v, %v", rep, err)
	}
	if got := over(); got != 0 {
		t.Fatalf("%d coroutines outlive Explore", got)
	}
	if _, res, err := ExecuteRun(cfg, nil); err != nil || res.Err != nil {
		t.Fatalf("ExecuteRun: %v / %v", err, res.Err)
	}
	if got := over(); got != 0 {
		t.Fatalf("%d coroutines outlive ExecuteRun", got)
	}
}
