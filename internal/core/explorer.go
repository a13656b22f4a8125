package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

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
	// schedule-sampling policy (see SubtreeTask.Expand).
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
	// Setting it costs every replay its reproducer (Decisions), which a
	// search otherwise builds only for a result it keeps: a failure, or a
	// sampled step.
	OnInterleaving func(res *InterleavingResult)
	// Runner, if set, replaces ExecuteRun as the function that performs one
	// (self or guided) run. Every engine routes every run through it
	// (RunContext.Run), so whatever makes the run, this package's search
	// drives the runs. Its users: internal/isp, whose centrally scheduled run
	// records its wildcard decisions as epochs, so ISP and DAMPI share one
	// search; bench/'s null tree; and tests, which memoize executions —
	// sharing one memoizing Runner across engines makes the program's
	// residual scheduling non-determinism invisible, so cross-checks compare
	// pure schedule-generator behavior.
	Runner func(cfg *ExplorerConfig, decisions *Decisions) (*RunTrace, *InterleavingResult, error)
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

// interleavingJSON is the durable form of a failing interleaving — in a
// checkpoint, a lease delta, a stored job report: its index, the error text
// (the live error value does not survive JSON) and the reproducer.
type interleavingJSON struct {
	Index     int        `json:"index,omitempty"`
	Message   string     `json:"message"`
	Deadlock  bool       `json:"deadlock,omitempty"`
	Decisions *Decisions `json:"decisions"`
}

// MarshalJSON implements json.Marshaler.
func (r *InterleavingResult) MarshalJSON() ([]byte, error) {
	j := interleavingJSON{Index: r.Index, Deadlock: r.Deadlock, Decisions: r.Decisions}
	if r.Err != nil {
		j.Message = r.Err.Error()
	}
	return json.Marshal(&j)
}

// UnmarshalJSON implements json.Unmarshaler: Err comes back as a plain error
// carrying the message.
func (r *InterleavingResult) UnmarshalJSON(b []byte) error {
	var j interleavingJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*r = InterleavingResult{Index: j.Index, Err: errors.New(j.Message), Deadlock: j.Deadlock, Decisions: j.Decisions}
	return nil
}

// Report summarizes a coverage exploration. Its JSON form is the aggregate
// block of a dexplore.Checkpoint, which embeds it — field order and names are
// that format's, so a counter added here reaches the checkpoint and the
// cluster's lease delta with it. Capped and SampledDistinct are derived (Seal,
// Restore) and not stored.
type Report struct {
	// Interleavings is the number of runs performed.
	Interleavings int `json:"interleavings"`
	// Deadlocks counts interleavings that deadlocked.
	Deadlocks int `json:"deadlocks,omitempty"`
	// DecisionPoints is the number of distinct epoch decision points that
	// entered the DFS stack over the whole exploration.
	DecisionPoints int `json:"decision_points"`
	// AutoAbstracted counts epochs suppressed by automatic loop detection.
	AutoAbstracted int `json:"auto_abstracted,omitempty"`
	// WildcardsAnalyzed is the wildcard epoch count of the initial run (the
	// paper's R* measure).
	WildcardsAnalyzed int `json:"wildcards_analyzed"`
	// Sampled counts the schedules executed by the sampling subsystem
	// (walk-step replays); SampledDistinct counts how many had distinct
	// decision vectors. Duplicates = Sampled - SampledDistinct. Zero unless
	// a Sampler drove the exploration.
	Sampled         int `json:"sampled,omitempty"`
	SampledDistinct int `json:"-"`
	// SampledSchedules lists the distinct sampled decision vectors in sorted
	// order — the dump behind `dampi -sample-dump` and the seed-determinism
	// tests. Nil unless a Sampler drove the exploration.
	SampledSchedules []string `json:"sampled_keys,omitempty"`
	// Unsafe aggregates §V pattern detections from the initial run.
	Unsafe []UnsafeReport `json:"unsafe,omitempty"`
	// Errors holds every failed interleaving (with its reproducer).
	Errors []*InterleavingResult `json:"errors,omitempty"`
	// Capped reports whether MaxInterleavings stopped the search early.
	Capped bool `json:"-"`
	// StaticPruned counts alternate branches skipped because of static
	// prune hints (ExplorerConfig.PruneHints). With MixingBound 0 each
	// skipped alternate corresponds to exactly one saved replay, so
	// Interleavings + StaticPruned equals the unpruned interleaving count.
	StaticPruned int `json:"static_pruned,omitempty"`
	// PruneDisabled reports that a hint violation switched static pruning
	// off mid-exploration; branches pruned before the violation were not
	// re-explored, so coverage may be reduced. PruneViolations carries the
	// evidence.
	PruneDisabled   bool             `json:"prune_disabled,omitempty"`
	PruneViolations []PruneViolation `json:"prune_violations,omitempty"`
	// FirstTrace is the initial self run's full epoch log.
	FirstTrace *RunTrace `json:"first_trace,omitempty"`

	// sampledKeys is the distinct sampled decision vectors seen so far;
	// Seal renders it into SampledSchedules.
	sampledKeys map[string]struct{}
}

// Errored reports whether any interleaving failed.
func (r *Report) Errored() bool { return len(r.Errors) > 0 }

// Add accounts one completed task — the only place a replay is counted, on
// every engine. ex is the run's expansion (nil for a deadlocked run, which
// expands nothing), root the trace when the task was the initial
// self-discovery run (nil otherwise), sampled whether the task was one step
// of a sampler's walk. The caller has already set res.Index.
func (r *Report) Add(res *InterleavingResult, ex *Expansion, root *RunTrace, sampled bool) {
	r.Interleavings++
	if res.Err != nil {
		r.Errors = append(r.Errors, res)
	}
	if res.Deadlock {
		r.Deadlocks++
	}
	if ex != nil {
		r.DecisionPoints += ex.DecisionPoints
		r.AutoAbstracted += ex.AutoAbstracted
	}
	if root != nil {
		r.WildcardsAnalyzed = len(root.Epochs)
		r.Unsafe = root.Unsafe
		r.FirstTrace = root
	}
	if sampled {
		// One completed walk step = one sampled schedule. Its identity is the
		// run's fully resolved decision vector (forced prefix plus observed
		// outcomes), not the walk's: two walks whose prefixes resolve to the
		// same complete schedule sampled one distinct schedule twice. Explore
		// builds that reproducer for every sampled step.
		r.Sampled++
		keys := r.sampledSet()
		keys[res.Decisions.String()] = struct{}{}
		r.SampledDistinct = len(keys)
	}
}

// sampledSet returns the distinct-schedule set, seeding it from
// SampledSchedules the first time (a report restored from a checkpoint
// carries only the list).
func (r *Report) sampledSet() map[string]struct{} {
	if r.sampledKeys == nil {
		r.sampledKeys = make(map[string]struct{}, len(r.SampledSchedules))
		for _, k := range r.SampledSchedules {
			r.sampledKeys[k] = struct{}{}
		}
	}
	return r.sampledKeys
}

// Merge folds the partial report o into r: two disjoint sets of completed
// tasks become one. The root ran in at most one of them, so its aggregates
// are zero everywhere else. Errors concatenate in argument order; engines
// whose completion order is scheduling-dependent call SortErrors after the
// last merge.
func (r *Report) Merge(o *Report) {
	r.Interleavings += o.Interleavings
	r.Deadlocks += o.Deadlocks
	r.DecisionPoints += o.DecisionPoints
	r.AutoAbstracted += o.AutoAbstracted
	r.Errors = append(r.Errors, o.Errors...)
	r.WildcardsAnalyzed += o.WildcardsAnalyzed
	r.Unsafe = append(r.Unsafe, o.Unsafe...)
	if o.FirstTrace != nil {
		r.FirstTrace = o.FirstTrace
	}
	r.StaticPruned += o.StaticPruned
	r.PruneDisabled = r.PruneDisabled || o.PruneDisabled
	r.PruneViolations = append(r.PruneViolations, o.PruneViolations...)
	r.Sampled += o.Sampled
	if len(o.sampledKeys) > 0 || len(o.SampledSchedules) > 0 {
		keys := r.sampledSet()
		for k := range o.sampledKeys {
			keys[k] = struct{}{}
		}
		for _, k := range o.SampledSchedules {
			keys[k] = struct{}{}
		}
		r.SampledDistinct = len(keys)
	}
}

// Seal computes the report state that depends on the whole exploration
// rather than on any one task: the cap flag (the cap was reached and
// workLeft says tasks remained), the sorted distinct-schedule dump, and the
// shared prune-hint table's counters. Sealing is idempotent, so a checkpoint
// may seal a snapshot of a report that is still being added to.
func (r *Report) Seal(cfg *ExplorerConfig, workLeft bool) {
	r.Capped = workLeft && cfg.MaxInterleavings > 0 && r.Interleavings >= cfg.MaxInterleavings
	if keys := r.sampledKeys; len(keys) > 0 {
		r.SampledSchedules = make([]string, 0, len(keys))
		for k := range keys {
			r.SampledSchedules = append(r.SampledSchedules, k)
		}
		sort.Strings(r.SampledSchedules)
	}
	if h := cfg.PruneHints; h != nil {
		r.StaticPruned = h.Pruned()
		r.PruneDisabled = h.Disabled()
		r.PruneViolations = h.Violations()
	}
}

// Snapshot returns a sealed copy of r that shares nothing r's later growth or
// SortErrors writes: what a checkpoint, or a lease's delta, stores of a report
// that may still be live.
func (r *Report) Snapshot(cfg *ExplorerConfig) Report {
	cp := *r
	cp.Seal(cfg, false)
	cp.Errors = slices.Clone(r.Errors)
	cp.sampledKeys = nil
	return cp
}

// SortErrors orders the errors by reproducer signature: the deterministic
// order for engines that complete tasks in a scheduling-dependent order.
// (One stack keeps DFS discovery order.)
func (r *Report) SortErrors() {
	sort.SliceStable(r.Errors, func(i, j int) bool {
		return r.Errors[i].Decisions.String() < r.Errors[j].Decisions.String()
	})
}

// Summary renders the one-line coverage summary every surface prints.
func (r *Report) Summary() string {
	s := fmt.Sprintf("interleavings=%d errors=%d deadlocks=%d wildcards=%d",
		r.Interleavings, len(r.Errors), r.Deadlocks, r.WildcardsAnalyzed)
	if r.Capped {
		s += " (capped)"
	}
	if r.Sampled > 0 {
		s += fmt.Sprintf(" sampled=%d distinct=%d", r.Sampled, r.SampledDistinct)
	}
	if r.StaticPruned > 0 || r.PruneDisabled {
		s += fmt.Sprintf(" pruned(static)=%d", r.StaticPruned)
	}
	if r.PruneDisabled {
		s += " (static hints disabled: violation observed)"
	}
	if len(r.Unsafe) > 0 {
		s += fmt.Sprintf(" unsafe-patterns=%d", len(r.Unsafe))
	}
	return s
}

// WriteHead prints the lines that open a printed report — the one renderer
// behind `dampi`, `dampi -serve` and the job queue's text reports, which CI
// diffs against each other: the DAMPI line (summary is Summary(), or a
// caller's extension of it), the schedule-sampling coverage statement
// (sampleDepth is the exploration's exhaustive/sampled boundary), the §V
// unsafe-pattern warnings and the static-pruning lines.
func (r *Report) WriteHead(w io.Writer, summary string, sampleDepth int) {
	fmt.Fprintf(w, "DAMPI: %s\n", summary)
	if r.Sampled > 0 {
		fmt.Fprintf(w, "  schedule sampling: exhaustive below depth %d, sampled %d schedules beyond, %d distinct\n",
			sampleDepth, r.Sampled, r.SampledDistinct)
	}
	for _, u := range r.Unsafe {
		fmt.Fprintf(w, "  warning: %v\n", u)
	}
	if r.StaticPruned > 0 || r.PruneDisabled {
		fmt.Fprintf(w, "  branches pruned (static): %d\n", r.StaticPruned)
	}
	for _, v := range r.PruneViolations {
		fmt.Fprintf(w, "  warning: %v (static pruning disabled for this run)\n", v)
	}
}

// WriteErrors prints each failing interleaving with its epoch-decisions
// reproducer, closing a printed report.
func (r *Report) WriteErrors(w io.Writer) {
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error in interleaving #%d: %v\n", e.Index, e.Err)
		fmt.Fprintf(w, "    reproducer: %v\n", e.Decisions)
	}
}

// Explorer is the paper's Schedule Generator run by a single worker: a
// depth-first walk over epoch decisions that pops the deepest pending
// subtree task, replays it, and pushes its expansion, until the space (as
// bounded by the heuristics) is covered. It is the one-worker, one-stack case
// of what internal/dexplore and internal/dcoord do with many, and the
// reference the one-slot dexplore engine verify.Run runs is tested against.
type Explorer struct {
	cfg ExplorerConfig
	rc  *RunContext
}

// NewExplorer creates an explorer for the given configuration.
func NewExplorer(cfg ExplorerConfig) *Explorer {
	if cfg.Procs < 1 {
		panic("core: ExplorerConfig.Procs must be >= 1")
	}
	if cfg.Program == nil {
		panic("core: ExplorerConfig.Program must be set")
	}
	e := &Explorer{cfg: cfg}
	e.rc = NewRunContext(&e.cfg)
	return e
}

// Explore runs the initial self-discovery run and then replays alternate
// matches depth-first until coverage (under the configured bounds) is
// complete, the interleaving cap is reached, or StopOnFirstError fires.
// Interleaving indexes and the error list follow DFS discovery order.
func (e *Explorer) Explore() (*Report, error) {
	cfg := &e.cfg
	rep, left, unbuilt, err := e.rc.Explore([]*SubtreeTask{RootTask(cfg)}, cfg.MaxInterleavings, true, nil)
	if err != nil {
		return nil, err
	}
	rep.Seal(cfg, len(left) > 0 || unbuilt > 0)
	return rep, nil
}

// RunContext is a reusable replay slot: it executes sequential instrumented
// runs of one configuration, recycling the DAMPI Tool (per-rank state,
// scratch buffers, epoch freelists), the hook stack and the mpi runtime's
// storage (mpi.Pools: request slabs, freelists, world skeleton, the rank
// coroutines) across runs. The serial explorer owns one; the lease engines
// give each slot its own. A RunContext must not run concurrently with
// itself.
//
// Run hands its caller a trace, a result and a reproducer to keep. Explore
// keeps less: a warm replay there allocates only what outlives it — child
// tasks, the root's trace, a kept result and its reproducer, application
// payloads — and builds every other trace, result and expansion in storage
// the context owns and reuses.
//
// The rank coroutines are parked goroutines, not garbage: Explore and
// ExecuteRun stop them before returning, and a caller that loops over Run
// itself calls Close after its last run or leaves up to Procs parked
// goroutines until the process exits.
type RunContext struct {
	cfg       *ExplorerConfig
	tool      *Tool
	toolHooks *mpi.Hooks         // cached stack when no extra hook layers are present
	pools     *mpi.Pools         // runtime storage carried from world to world
	traces    traceStore         // where Explore builds the traces it drops
	result    InterleavingResult // where Explore builds the results it drops
	expansion Expansion          // where Explore builds exhaustive expansions
}

// NewRunContext creates a replay slot for cfg. The config pointer is
// retained; the caller must keep it alive and unmodified across runs.
func NewRunContext(cfg *ExplorerConfig) *RunContext {
	return &RunContext{cfg: cfg}
}

// Close stops the rank coroutines the context's runs left parked (see
// mpi.Pools.Close). It is idempotent and the context remains usable; the next
// Run starts them again.
func (rc *RunContext) Close() {
	if rc.pools != nil {
		rc.pools.Close()
	}
}

// Run performs one (self or guided) instrumented run, honoring the Runner
// test seam when set. The trace and the result's reproducer are the caller's
// to keep; the result's Index is left 0 for the caller to assign.
func (rc *RunContext) Run(decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	if rc.cfg.Runner != nil {
		return rc.cfg.Runner(rc.cfg, decisions)
	}
	trace, res := rc.execute(decisions, nil)
	res.Decisions = reproducer(decisions, trace)
	return trace, &res, nil
}

// replay performs task t's run for Explore. A non-root trace is built in the
// context's lent storage: expand reads it and Explore drops it — a Sampler
// reads records only inside Expand, and FlipChild copies what a child needs.
// Only a result that is kept is fresh and carries a reproducer: a failure (it
// joins Report.Errors), a sampled step (Report.Add keys it) or one an
// OnInterleaving observes. Any other result is the context's own, overwritten
// by the next replay. A Runner's trace and result are its own.
func (rc *RunContext) replay(t *SubtreeTask) (*RunTrace, *InterleavingResult, error) {
	cfg := rc.cfg
	if cfg.Runner != nil {
		return cfg.Runner(cfg, t.Decisions)
	}
	var store *traceStore
	if t.Decisions != nil {
		store = &rc.traces
	}
	trace, r := rc.execute(t.Decisions, store)
	res := &rc.result
	if r.Err != nil || t.Sample != nil || cfg.OnInterleaving != nil {
		res = new(InterleavingResult)
		r.Decisions = reproducer(t.Decisions, trace)
	}
	*res = r
	return trace, res, nil
}

// reproducer returns the decisions that replay a run: the forced prefix plus
// every observed choice pinned, so replaying it deterministically reproduces
// the interleaving even when the interesting match happened by accident in a
// self run.
func reproducer(decisions *Decisions, trace *RunTrace) *Decisions {
	d := decisions.CloneWithCapacity(len(trace.Epochs))
	d.pin(trace.Epochs)
	return d
}

// execute performs one instrumented run on the context's recycled tool, hook
// stack and pools, and returns its trace — built in store when that is
// non-nil (see Tool.trace) — and its result, without a reproducer.
func (rc *RunContext) execute(decisions *Decisions, store *traceStore) (*RunTrace, InterleavingResult) {
	cfg := rc.cfg
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
	trace := rc.tool.trace(store)

	res := InterleavingResult{
		Err:        runErr,
		Mismatches: trace.Mismatches,
		Epochs:     len(trace.Epochs),
	}
	if runErr != nil {
		var re *mpi.RunError
		res.Deadlock = errors.As(runErr, &re) && re.Deadlock != nil
	}
	return trace, res
}

// Explore is the depth-first loop every search runs — the serial Explorer
// over the whole space, a dexplore slot or a cluster worker over the subtrees
// of one lease: pop the deepest pending task of stack, replay it, account it,
// push its expansion, until the stack is empty, budget replays are done (0 =
// no bound), StopOnFirstError fires, or yield (consulted once after every
// replay, so never before the first; nil = never) asks for the rest back.
// A replay allocates only what outlives it (see RunContext). It returns the
// unsealed report of what it ran, indexed from 0 in discovery order, and the
// tasks left on the stack. final says nothing will run after the budget: what
// the last replay it allows spawns is then only counted (unbuilt), not built.
// The rank coroutines live as long as the call: a lease of a few hundred
// replays starts them once and stops them on the way out.
func (rc *RunContext) Explore(stack []*SubtreeTask, budget int, final bool, yield func() bool) (rep *Report, left []*SubtreeTask, unbuilt int, err error) {
	defer rc.Close()
	cfg := rc.cfg
	rep = &Report{}
	spent := func(done int) bool { return budget > 0 && done >= budget }
	for len(stack) > 0 && !spent(rep.Interleavings) {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		trace, res, err := rc.replay(t)
		if err != nil {
			return nil, nil, 0, err
		}
		res.Index = rep.Interleavings
		var ex *Expansion
		if !res.Deadlock {
			// What the last replay a final budget allows spawns will never
			// run: the report needs its decision points and whether work was
			// left, not the children's decision prefixes. This keeps a single
			// instrumented run (MaxInterleavings 1, the Table II measurement)
			// from paying for an exploration it does not do.
			ex = t.expand(cfg, trace, !(final && spent(rep.Interleavings+1)), &rc.expansion)
			stack = append(stack, ex.stackOrder()...)
			unbuilt = ex.unbuilt
		}
		var root *RunTrace
		if t.Decisions == nil {
			root = trace
		}
		rep.Add(res, ex, root, t.Sample != nil)
		if cfg.OnInterleaving != nil {
			cfg.OnInterleaving(res)
		}
		handBack := yield != nil && yield()
		if handBack || cfg.StopOnFirstError && res.Err != nil {
			break
		}
	}
	return rep, stack, unbuilt, nil
}

// ExecuteRun performs one (self or guided) instrumented run: it builds a
// fresh Tool and mpi.World, executes the program under the given decisions,
// and derives the run's trace and its deterministic reproducer. This is the
// one-shot form of RunContext.Run, kept as the replay primitive for callers
// without a replay sequence (Replay, one-off guided runs).
func ExecuteRun(cfg *ExplorerConfig, decisions *Decisions) (*RunTrace, *InterleavingResult, error) {
	rc := NewRunContext(cfg)
	defer rc.Close()
	return rc.Run(decisions)
}

// Replay performs a single guided run of the program under the given
// decisions, without any exploration: the deterministic-reproducer entry
// point.
func Replay(cfg ExplorerConfig, d *Decisions) (*RunTrace, *InterleavingResult, error) {
	return ExecuteRun(&cfg, d)
}
