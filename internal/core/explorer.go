package core

import (
	"errors"
	"fmt"

	"dampi/internal/pnmpi"
	"dampi/mpi"
)

// ExplorerConfig configures a coverage exploration.
type ExplorerConfig struct {
	// Procs is the world size.
	Procs int
	// Program is the MPI program under verification.
	Program func(p *mpi.Proc) error
	// Clock selects Lamport (default) or vector causality tracking.
	Clock ClockMode
	// DualClock enables the §V dual-Lamport-clock remedy (see ToolConfig).
	DualClock bool
	// Transport selects the piggyback mechanism (see ToolConfig).
	Transport Transport
	// MixingBound is the bounded-mixing k (§III-B2): 0 explores each epoch's
	// alternates in isolation (P·N interleavings for N epochs of P senders);
	// larger k lets up to k further decision levels below a flipped epoch
	// mix; Unbounded performs the full depth-first search.
	MixingBound int
	// AutoLoopThreshold enables the paper's future-work automatic loop
	// detection (§VI): when a rank's wildcard epochs repeat the same
	// signature (communicator, tag, kind, alternate count) more than this
	// many times consecutively, further repetitions are treated like
	// Pcontrol-marked loop iterations and not explored. 0 disables (manual
	// Pcontrol marking only).
	AutoLoopThreshold int
	// MaxInterleavings caps the number of replays (0 = unlimited). The
	// report notes when the cap was hit.
	MaxInterleavings int
	// StopOnFirstError ends exploration at the first erroneous interleaving.
	StopOnFirstError bool
	// PruneHints is the optional static prune-hint table (see prune.go): at
	// a wildcard decision point whose statically derived sender set is a
	// singleton, branching is skipped. Every observed match is cross-checked
	// against the table; a violation disables it for the rest of the run.
	// Nil disables static pruning.
	PruneHints *PruneHints
	// ChoicePoints enables the enlarged choice-point space (Waitany/Testany
	// completion indexes, Iprobe outcomes) — see ToolConfig.Choices. Off by
	// default so existing explorations are byte-identical; sampling forces
	// it on.
	ChoicePoints bool
	// Sampler, when non-nil, replaces exhaustive task expansion with a
	// schedule-sampling policy (see SubtreeTask.Expand). Samplers require
	// the task-based engines (dexplore/dcoord); the serial Explorer ignores
	// this field.
	Sampler Sampler
	// SampleDepth bounds the exhaustive zone under a Sampler: tasks at
	// Depth >= SampleDepth spawn no exhaustive children ("exhaustive below
	// depth d, sampled beyond").
	SampleDepth int
	// ExtraHooks are additional tool layers stacked below DAMPI's (leak
	// checking, statistics). A fresh set is built per replay via the factory
	// so per-run tools don't leak state across interleavings.
	ExtraHooks func() []*mpi.Hooks
	// OnInterleaving, if set, observes each replay's result as it happens.
	OnInterleaving func(res *InterleavingResult)
	// Runner, if set, replaces ExecuteRun as the function that performs one
	// (self or guided) instrumented run. Both the serial explorer and the
	// parallel engine route every run through it, which gives tests a seam to
	// memoize executions: sharing one memoizing Runner across engines makes
	// the program's residual scheduling non-determinism invisible, so
	// cross-checks compare pure schedule-generator behavior.
	Runner func(cfg *ExplorerConfig, decisions *Decisions) (*RunTrace, *InterleavingResult, error)
}

// run dispatches one replay through Runner, or ExecuteRun when unset.
func (c *ExplorerConfig) run(decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	if c.Runner != nil {
		return c.Runner(c, decisions)
	}
	return ExecuteRun(c, decisions)
}

// Unbounded disables bounded mixing (full depth-first coverage).
const Unbounded = -1

// InterleavingResult describes one explored interleaving.
type InterleavingResult struct {
	// Index is the interleaving number (0 = the initial self run).
	Index int
	// Decisions reproduces the interleaving when passed to a guided run.
	Decisions *Decisions
	// Err is the program/deadlock error, if the interleaving failed.
	Err error
	// Deadlock reports whether the failure was a deadlock.
	Deadlock bool
	// Mismatches lists forced decisions the replay could not enforce.
	Mismatches []ForcedMismatch
	// Epochs is the number of wildcard epochs observed in this run.
	Epochs int
}

func (r *InterleavingResult) String() string {
	state := "ok"
	switch {
	case r.Deadlock:
		state = "deadlock"
	case r.Err != nil:
		state = "error"
	}
	return fmt.Sprintf("interleaving #%d: %s decisions=%v", r.Index, state, r.Decisions)
}

// Report summarizes a coverage exploration.
type Report struct {
	// AutoAbstracted counts epochs suppressed by automatic loop detection.
	AutoAbstracted int
	// Interleavings is the number of runs performed.
	Interleavings int
	// Errors holds every failed interleaving (with its reproducer).
	Errors []*InterleavingResult
	// Deadlocks counts interleavings that deadlocked.
	Deadlocks int
	// WildcardsAnalyzed is the wildcard epoch count of the initial run (the
	// paper's R* measure).
	WildcardsAnalyzed int
	// DecisionPoints is the number of distinct epoch decision points that
	// entered the DFS stack over the whole exploration.
	DecisionPoints int
	// Unsafe aggregates §V pattern detections from the initial run.
	Unsafe []UnsafeReport
	// Capped reports whether MaxInterleavings stopped the search early.
	Capped bool
	// StaticPruned counts alternate branches skipped because of static
	// prune hints (ExplorerConfig.PruneHints). With MixingBound 0 each
	// skipped alternate corresponds to exactly one saved replay, so
	// Interleavings + StaticPruned equals the unpruned interleaving count.
	StaticPruned int
	// PruneDisabled reports that a hint violation switched static pruning
	// off mid-exploration; branches pruned before the violation were not
	// re-explored, so coverage may be reduced. PruneViolations carries the
	// evidence.
	PruneDisabled   bool
	PruneViolations []PruneViolation
	// Sampled counts the schedules executed by the sampling subsystem
	// (walk-step replays); SampledDistinct counts how many had distinct
	// decision vectors. Duplicates = Sampled - SampledDistinct. Zero unless
	// a Sampler drove the exploration.
	Sampled         int
	SampledDistinct int
	// SampledSchedules lists the distinct sampled decision vectors in sorted
	// order — the dump behind `dampi -sample-dump` and the seed-determinism
	// tests. Nil unless a Sampler drove the exploration.
	SampledSchedules []string
	// FirstTrace is the initial self run's full epoch log.
	FirstTrace *RunTrace
}

// Errored reports whether any interleaving failed.
func (r *Report) Errored() bool { return len(r.Errors) > 0 }

// frame is one epoch decision point on the DFS stack.
type frame struct {
	id         EpochID
	chosen     int   // source forced when reproducing the prefix
	alts       []int // unexplored alternate sources
	explorable bool
	budget     int // remaining mixing depth below a flip here (-1 = unbounded)
}

// Explorer is the paper's Schedule Generator: it owns the DFS stack over
// epoch decisions and drives guided replays until the space (as bounded by
// the heuristics) is covered.
type Explorer struct {
	cfg    ExplorerConfig
	rc     *RunContext
	stack  []*frame
	forced map[EpochID]*frame
	report *Report
}

// NewExplorer creates an explorer for the given configuration.
func NewExplorer(cfg ExplorerConfig) *Explorer {
	if cfg.Procs < 1 {
		panic("core: ExplorerConfig.Procs must be >= 1")
	}
	if cfg.Program == nil {
		panic("core: ExplorerConfig.Program must be set")
	}
	e := &Explorer{cfg: cfg, forced: make(map[EpochID]*frame), report: &Report{}}
	e.rc = NewRunContext(&e.cfg)
	return e
}

// Explore runs the initial self-discovery run and then replays alternate
// matches depth-first until coverage (under the configured bounds) is
// complete, the interleaving cap is reached, or StopOnFirstError fires.
func (e *Explorer) Explore() (*Report, error) {
	trace, res, err := e.runOnce(nil)
	if err != nil {
		return nil, err
	}
	e.report.WildcardsAnalyzed = len(trace.Epochs)
	e.report.Unsafe = trace.Unsafe
	e.report.FirstTrace = trace
	e.record(res)
	if !(res.Deadlock) {
		e.pushNew(trace, nil)
	}
	if e.cfg.StopOnFirstError && res.Err != nil {
		return e.report, nil
	}

	for {
		if e.cfg.MaxInterleavings > 0 && e.report.Interleavings >= e.cfg.MaxInterleavings {
			if e.pendingWork() {
				e.report.Capped = true
			}
			break
		}
		f := e.nextFlip()
		if f == nil {
			break
		}
		// Flip: take the next unexplored alternate at the deepest frame.
		f.chosen = f.alts[0]
		f.alts = f.alts[1:]
		decisions := e.buildDecisions()
		trace, res, err := e.runOnce(decisions)
		if err != nil {
			return nil, err
		}
		e.record(res)
		if !res.Deadlock {
			e.pushNew(trace, f)
		}
		if e.cfg.StopOnFirstError && res.Err != nil {
			break
		}
	}
	if h := e.cfg.PruneHints; h != nil {
		e.report.StaticPruned = h.Pruned()
		e.report.PruneDisabled = h.Disabled()
		e.report.PruneViolations = h.Violations()
	}
	return e.report, nil
}

// nextFlip pops exhausted frames and returns the deepest flippable frame.
func (e *Explorer) nextFlip() *frame {
	for len(e.stack) > 0 {
		top := e.stack[len(e.stack)-1]
		if top.explorable && len(top.alts) > 0 {
			return top
		}
		e.stack = e.stack[:len(e.stack)-1]
		delete(e.forced, top.id)
	}
	return nil
}

// pendingWork reports whether unexplored alternates remain on the stack.
func (e *Explorer) pendingWork() bool {
	for _, f := range e.stack {
		if f.explorable && len(f.alts) > 0 {
			return true
		}
	}
	return false
}

// buildDecisions forces every stacked frame's current choice: the replay
// reproduces the whole prefix up to (and including) the flipped frame.
func (e *Explorer) buildDecisions() *Decisions {
	d := NewDecisions()
	for _, f := range e.stack {
		if f.chosen >= 0 {
			d.Force(f.id, f.chosen)
		}
	}
	return d
}

// pushNew appends frames for epochs discovered beyond the forced prefix.
// flipped is the frame whose flip produced this run (nil for the initial
// run); bounded mixing derives the new frames' explorability from it.
func (e *Explorer) pushNew(trace *RunTrace, flipped *frame) {
	explorable := true
	budget := e.cfg.MixingBound
	if flipped != nil {
		budget, explorable = childBudget(flipped.budget)
	}
	det := newLoopDetector(e.cfg.AutoLoopThreshold)
	for _, rec := range trace.Epochs {
		if rec.Chosen < 0 {
			continue // never completed; nothing to reproduce or flip
		}
		autoLoop := det.observe(rec)
		if autoLoop {
			e.report.AutoAbstracted++
		}
		e.cfg.PruneHints.Observe(rec)
		id := rec.ID()
		if _, ok := e.forced[id]; ok {
			continue // part of the forced prefix
		}
		canFlip := explorable && !rec.InLoop && !autoLoop
		alts := append([]int(nil), rec.Alternates...)
		if canFlip && e.cfg.PruneHints.ShouldPrune(rec) {
			// Statically deterministic decision point: keep the frame so the
			// prefix still pins the observed choice, but skip its branches.
			alts = nil
		}
		f := &frame{
			id:         id,
			chosen:     rec.Chosen,
			alts:       alts,
			explorable: canFlip,
			budget:     budget,
		}
		e.stack = append(e.stack, f)
		e.forced[id] = f
		e.report.DecisionPoints++
	}
}

// record accounts one interleaving's outcome.
func (e *Explorer) record(res *InterleavingResult) {
	e.report.Interleavings++
	if res.Err != nil {
		e.report.Errors = append(e.report.Errors, res)
	}
	if res.Deadlock {
		e.report.Deadlocks++
	}
	if e.cfg.OnInterleaving != nil {
		e.cfg.OnInterleaving(res)
	}
}

// runOnce executes one (self or guided) instrumented run and stamps the
// result with the explorer's current interleaving index.
func (e *Explorer) runOnce(decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	trace, res, err := e.rc.Run(decisions)
	if err != nil {
		return nil, nil, err
	}
	res.Index = e.report.Interleavings
	return trace, res, nil
}

// RunContext is a reusable replay slot: it executes sequential instrumented
// runs of one configuration, recycling the DAMPI Tool (per-rank state,
// scratch buffers, epoch freelists), the hook stack and the mpi runtime's
// storage (mpi.Pools: request slabs, freelists, world skeleton) across runs.
// The serial explorer owns one; the parallel engine gives each worker its
// own. A RunContext must not run concurrently with itself.
type RunContext struct {
	cfg       *ExplorerConfig
	tool      *Tool
	toolHooks *mpi.Hooks // cached stack when no extra hook layers are present
	pools     *mpi.Pools // runtime storage carried from world to world
}

// NewRunContext creates a replay slot for cfg. The config pointer is
// retained; the caller must keep it alive and unmodified across runs.
func NewRunContext(cfg *ExplorerConfig) *RunContext {
	return &RunContext{cfg: cfg}
}

// Run performs one (self or guided) instrumented run, honoring the Runner
// test seam when set. The returned result's Index is left 0 for the caller
// to assign.
func (rc *RunContext) Run(decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	cfg := rc.cfg
	if cfg.Runner != nil {
		return cfg.Runner(cfg, decisions)
	}
	if rc.tool == nil {
		rc.tool = NewTool(ToolConfig{
			Procs:     cfg.Procs,
			Clock:     cfg.Clock,
			DualClock: cfg.DualClock,
			Transport: cfg.Transport,
			Decisions: decisions,
			Choices:   cfg.ChoicePoints,
		})
	} else {
		rc.tool.Reset(decisions)
	}
	// ExtraHooks is consulted every run: factories that return layers only
	// for the first run (e.g. verify's leak checker) get a tool-only stack
	// afterwards, which is cached and reused.
	var extra []*mpi.Hooks
	if cfg.ExtraHooks != nil {
		extra = cfg.ExtraHooks()
	}
	var hooks *mpi.Hooks
	if len(extra) == 0 {
		if rc.toolHooks == nil {
			rc.toolHooks = pnmpi.Stack(rc.tool.Hooks())
		}
		hooks = rc.toolHooks
	} else {
		hooks = pnmpi.Stack(append([]*mpi.Hooks{rc.tool.Hooks()}, extra...)...)
	}
	if rc.pools == nil {
		rc.pools = mpi.NewPools(cfg.Procs)
	}
	world := mpi.NewWorld(mpi.Config{Procs: cfg.Procs, Hooks: hooks, Pools: rc.pools})
	runErr := world.Run(cfg.Program)
	trace := rc.tool.Trace()

	res := &InterleavingResult{
		Err:        runErr,
		Mismatches: trace.Mismatches,
		Epochs:     len(trace.Epochs),
	}
	// The reproducer pins the forced prefix plus every observed choice, so
	// replaying it deterministically reproduces this interleaving even when
	// the interesting match happened by accident in a self run.
	if decisions != nil {
		res.Decisions = decisions.Clone()
	} else {
		res.Decisions = NewDecisions()
	}
	for _, rec := range trace.Epochs {
		if rec.Chosen < 0 {
			continue
		}
		if _, ok := res.Decisions.Lookup(rec.Rank, rec.LC); !ok {
			res.Decisions.Force(rec.ID(), rec.Chosen)
		}
	}
	var re *mpi.RunError
	if errors.As(runErr, &re) && re.Deadlock != nil {
		res.Deadlock = true
	}
	return trace, res, nil
}

// ExecuteRun performs one (self or guided) instrumented run: it builds a
// fresh Tool and mpi.World, executes the program under the given decisions,
// and derives the run's trace and its deterministic reproducer. This is the
// one-shot form of RunContext.Run, kept as the replay primitive for callers
// without a replay sequence (Replay, one-off guided runs).
func ExecuteRun(cfg *ExplorerConfig, decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	return NewRunContext(cfg).Run(decisions)
}

// Replay performs a single guided run of the program under the given
// decisions, without any exploration: the deterministic-reproducer entry
// point.
func Replay(cfg ExplorerConfig, d *Decisions) (*RunTrace, *InterleavingResult, error) {
	return cfg.run(d)
}
