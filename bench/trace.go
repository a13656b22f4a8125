package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/pnmpi"
	"dampi/mpi"
)

// span is one timed interval at a layer boundary, recorded by the benchmark
// around its calls into the system. Spans of one replay or job share ID;
// Parent names the span that caused this one (0 = none).
type span struct {
	Span   int64  `json:"span"`
	Parent int64  `json:"parent"`
	ID     string `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// *tracer records nothing, so the timed pass and the traced pass share code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its number for use as a parent.
func (t *tracer) add(name, id string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		Span: n, Parent: parent, ID: id, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return n
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	body, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	return os.WriteFile(path, body, 0o644)
}

// Hook brackets. The benchmark assembles an instrumented run from public
// pieces — pnmpi.Stack(outer, core.NewTool(cfg).Hooks(), inner) on an
// mpi.NewWorld — where outer and inner only read the clock. On each rank,
// the time since the previous bracket is charged by the bracket being
// entered:
//
//	outer Pre*            <- program  (the rank was in user code)
//	inner Pre*            <- tool     (core.Tool's pre hook ran)
//	inner Post*/Complete  <- runtime  (mpi matching and blocking)
//	outer Post*/Complete  <- tool     (core.Tool's post hook ran)
//
// Init and AtFinalize bracket the tool's set-up and sweep the same way, so
// the three phases partition each rank's wall time exactly. What the split
// cannot see: the tool's CollClockIn/CollClockOut callbacks run inside the
// collective and are charged to runtime.

type phase int

const (
	phaseProgram phase = iota
	phaseTool
	phaseRuntime
	numPhases
)

// rankClock is one rank's accumulator, touched only by that rank's
// goroutine; the padding keeps neighbouring ranks off one cache line.
type rankClock struct {
	last time.Time
	acc  [numPhases]time.Duration
	ops  int64
	_    [64]byte
}

type brackets struct{ ranks []rankClock }

func newBrackets(procs int) *brackets { return &brackets{ranks: make([]rankClock, procs)} }

func (b *brackets) mark(p *mpi.Proc, into phase) *rankClock {
	rc := &b.ranks[p.Rank()]
	now := time.Now()
	rc.acc[into] += now.Sub(rc.last)
	rc.last = now
	return rc
}

// layer builds one bracket layer: pre is the phase charged on the way into
// the runtime, post the phase charged on the way out.
func (b *brackets) layer(pre, post phase, countOps bool) *mpi.Hooks {
	in := func(p *mpi.Proc) {
		rc := b.mark(p, pre)
		if countOps {
			rc.ops++
		}
	}
	out := func(p *mpi.Proc) { b.mark(p, post) }
	return &mpi.Hooks{
		PreSend:   func(p *mpi.Proc, _ *mpi.SendOp) { in(p) },
		PostSend:  func(p *mpi.Proc, _ *mpi.SendOp, _ *mpi.Request) { out(p) },
		PreRecv:   func(p *mpi.Proc, _ *mpi.RecvOp) { in(p) },
		PostRecv:  func(p *mpi.Proc, _ *mpi.RecvOp, _ *mpi.Request) { out(p) },
		PreWait:   func(p *mpi.Proc, _ []*mpi.Request) { in(p) },
		Complete:  func(p *mpi.Proc, _ *mpi.Request, _ mpi.Status) { out(p) },
		PreProbe:  func(p *mpi.Proc, _ *mpi.ProbeOp) { in(p) },
		PostProbe: func(p *mpi.Proc, _ *mpi.ProbeOp, _ mpi.Status, _ bool) { out(p) },
		PreColl:   func(p *mpi.Proc, _ *mpi.CollOp) { in(p) },
		PostColl:  func(p *mpi.Proc, _ *mpi.CollOp) { out(p) },
	}
}

// outer is stack layer 0: it runs first on the way in and last on the way
// out, and it counts the application's MPI calls (trace.Stats' categories).
func (b *brackets) outer() *mpi.Hooks {
	h := b.layer(phaseProgram, phaseTool, true)
	h.Init = func(p *mpi.Proc) { b.ranks[p.Rank()].last = time.Now() }
	h.AtFinalize = func(p *mpi.Proc) { b.mark(p, phaseTool) }
	return h
}

// inner is the last stack layer, next to the runtime.
func (b *brackets) inner() *mpi.Hooks {
	h := b.layer(phaseTool, phaseRuntime, false)
	h.Init = func(p *mpi.Proc) { b.mark(p, phaseTool) }
	h.AtFinalize = func(p *mpi.Proc) { b.mark(p, phaseProgram) }
	return h
}

// phaseTotals sums the ranks' accumulators.
type phaseTotals struct {
	acc [numPhases]time.Duration
	ops int64
}

func (b *brackets) totals() phaseTotals {
	var t phaseTotals
	for i := range b.ranks {
		for ph := range t.acc {
			t.acc[ph] += b.ranks[i].acc[ph]
		}
		t.ops += b.ranks[i].ops
	}
	return t
}

func (t *phaseTotals) addTotals(o phaseTotals) {
	for ph := range t.acc {
		t.acc[ph] += o.acc[ph]
	}
	t.ops += o.ops
}

func (t phaseTotals) share(ph phase) float64 {
	all := t.acc[phaseProgram] + t.acc[phaseTool] + t.acc[phaseRuntime]
	if all == 0 {
		return 0
	}
	return float64(t.acc[ph]) / float64(all)
}

// canonicalRun is one instrumented self run assembled from public pieces,
// the bench-side equivalent of verify.Run{MaxInterleavings: 1}. With
// bracketed set it carries the two timestamping layers and returns their
// totals.
func canonicalRun(prog program, tcfg core.ToolConfig, bracketed bool) (*core.RunTrace, phaseTotals, error) {
	tcfg.Procs = prog.procs
	tool := core.NewTool(tcfg)
	hooks := tool.Hooks()
	var b *brackets
	if bracketed {
		b = newBrackets(prog.procs)
		hooks = pnmpi.Stack(b.outer(), hooks, b.inner())
	}
	err := mpi.NewWorld(mpi.Config{Procs: prog.procs, Hooks: hooks}).Run(prog.run)
	if err != nil {
		return nil, phaseTotals{}, fmt.Errorf("canonical run of %s: %w", prog.name, err)
	}
	var tot phaseTotals
	if b != nil {
		tot = b.totals()
	}
	return tool.Trace(), tot, nil
}
