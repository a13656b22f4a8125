package core

import "slices"

// This file is the schedule generator's search logic — mixing-budget
// inheritance, automatic loop detection, prune hints, and the derivation of
// child decision prefixes from a completed run's trace. Every engine drives
// it through RunContext.Explore: the serial Explorer over the whole space,
// internal/dexplore and internal/dcoord over the subtrees of one lease at a
// time, in-process and over the wire. A SubtreeTask is the
// unit they schedule: one subtree of the epoch-decision DFS, identified by
// its forced-decision prefix.

// SubtreeTask is one independently explorable unit of the epoch-decision
// search: replay the program under Decisions, then expand every newly
// discovered wildcard epoch's alternates into child tasks. Tasks are
// self-contained — two tasks share no mutable state — which is what makes
// the search embarrassingly parallel and lets a frontier of pending tasks
// round-trip through JSON for checkpoint/resume.
type SubtreeTask struct {
	// Decisions is the forced prefix reproduced by this task's replay (nil
	// for the root self-discovery run). Its keys double as the skip set
	// during expansion: epochs already forced are part of the prefix, not
	// new decision points.
	Decisions *Decisions `json:"decisions"`
	// Budget is the remaining mixing depth for frames discovered by this
	// task's run (Unbounded = no bound), per the bounded-mixing heuristic
	// (§III-B2).
	Budget int `json:"budget"`
	// Explorable reports whether frames discovered by this task's run may
	// be flipped at all; false once the mixing budget is exhausted.
	Explorable bool `json:"explorable"`
	// Depth is the task's level in the flip tree (root = 0; each child is
	// one deeper). The sampling subsystem bounds exhaustive expansion by it
	// ("exhaustive below depth d, sampled beyond").
	Depth int `json:"depth,omitempty"`
	// Sample, when non-nil, marks this task as one step of a sampled
	// random walk rather than part of the exhaustive frontier; it carries
	// the walk's deterministic generator state so the walk continues
	// identically on whichever engine or worker runs the task.
	Sample *SampleState `json:"sample,omitempty"`
}

// SampleState is the serialized generator state of one schedule-sampling
// walk, threaded through the task (and therefore the wire protocol and
// checkpoints) so walks are engine- and worker-independent: the next step is
// a pure function of this state and the completed run's trace.
type SampleState struct {
	// Walk is the walk's index (seed derivation: mix(Seed, Walk)).
	Walk int `json:"walk"`
	// Step is this task's step number within the walk (1-based).
	Step int `json:"step"`
	// Rng is the generator state after deriving this task.
	Rng uint64 `json:"rng"`
	// Prio is the PCT-style per-value priority permutation (nil for the
	// uniform random-walk strategy).
	Prio []int `json:"prio,omitempty"`
	// NextChange is the step at which the PCT-style sampler re-derives its
	// priority permutation (a priority change point).
	NextChange int `json:"next_change,omitempty"`
}

// Clone returns a deep copy of the sample state.
func (s *SampleState) Clone() *SampleState {
	if s == nil {
		return nil
	}
	out := *s
	out.Prio = append([]int(nil), s.Prio...)
	return &out
}

// RootTask returns the task of the initial self-discovery run.
func RootTask(cfg *ExplorerConfig) *SubtreeTask {
	return &SubtreeTask{Decisions: nil, Budget: cfg.MixingBound, Explorable: true}
}

// Sampler is a schedule-sampling policy: it replaces exhaustive task
// expansion when set on the ExplorerConfig, deciding per completed task what
// (if anything) runs next. internal/sample provides the seeded uniform
// random-walk and PCT-style implementations.
type Sampler interface {
	// Expand derives the child tasks of a completed, non-deadlocked run.
	// Implementations must be deterministic functions of (t, trace) — every
	// engine and worker must derive the identical child set. The trace is
	// valid only during the call (a search reuses its storage): keep nothing
	// of it; FlipChild copies what a child needs.
	Expand(t *SubtreeTask, cfg *ExplorerConfig, trace *RunTrace) *Expansion
}

// Expansion is what one completed task's trace contributes to the search:
// the child subtree tasks plus the bookkeeping the coverage report
// aggregates.
type Expansion struct {
	// Children are the subtree tasks spawned by flipping each explorable
	// new epoch to each of its alternates: epochs in commit order, each
	// epoch's alternates in recorded order. A LIFO frontier therefore
	// explores the deepest epoch first.
	Children []*SubtreeTask
	// DecisionPoints counts the new epoch decision points this run
	// discovered beyond the forced prefix (explorable or not).
	DecisionPoints int
	// AutoAbstracted counts epochs suppressed by automatic loop detection.
	AutoAbstracted int

	// flipStart holds, per flipped epoch, the index in Children where its
	// alternates begin.
	flipStart []int
	// unbuilt counts the children a count-only expansion did not build.
	unbuilt int
}

// stackOrder reorders Children in place for the serial explorer's stack:
// each flipped epoch's alternates reversed, so that popping from the end
// flips the deepest epoch first and takes each epoch's alternates in
// recorded order — the depth-first discovery order reports are indexed by.
func (ex *Expansion) stackOrder() []*SubtreeTask {
	for i, start := range ex.flipStart {
		end := len(ex.Children)
		if i+1 < len(ex.flipStart) {
			end = ex.flipStart[i+1]
		}
		slices.Reverse(ex.Children[start:end])
	}
	return ex.Children
}

// Expand derives the child subtree tasks of a completed, non-deadlocked run.
// With a Sampler configured, expansion is delegated to it (the one seam all
// engines — serial, in-process, distributed — route completions through,
// which is what makes sampling engine-agnostic); otherwise the exhaustive
// derivation runs.
func (t *SubtreeTask) Expand(cfg *ExplorerConfig, trace *RunTrace) *Expansion {
	return t.expand(cfg, trace, true, &Expansion{})
}

// expand is Expand with the choice of building the exhaustive children or
// only counting them (see expandExhaustive), and of the storage an exhaustive
// expansion is built in: ex, reset first. A Sampler's expansion is its own.
func (t *SubtreeTask) expand(cfg *ExplorerConfig, trace *RunTrace, build bool, ex *Expansion) *Expansion {
	if cfg.Sampler != nil {
		return cfg.Sampler.Expand(t, cfg, trace)
	}
	ex.reset()
	t.expandExhaustive(cfg, trace, build, ex)
	return ex
}

// reset empties ex for another expansion, keeping the capacity of its
// arrays.
func (ex *Expansion) reset() {
	clear(ex.Children)
	*ex = Expansion{Children: ex.Children[:0], flipStart: ex.flipStart[:0]}
}

// ExpandExhaustive is the exhaustive DFS derivation: a child's prefix is the
// task's own decisions, plus every new epoch observed before the flipped one
// pinned to its observed choice, plus the flip itself. A statically
// deterministic decision point (PruneHints) still joins the prefix, so later
// children pin its observed choice, but spawns no children. Samplers call
// this for the depth-bounded exhaustive zone below their sampling frontier.
func (t *SubtreeTask) ExpandExhaustive(cfg *ExplorerConfig, trace *RunTrace) *Expansion {
	ex := &Expansion{}
	t.expandExhaustive(cfg, trace, true, ex)
	return ex
}

// expandExhaustive is ExpandExhaustive into the empty ex when build is set.
// Otherwise the scan (counters, prune-hint cross-check and accounting) is
// identical but no child is built — cloning a decision prefix per child is
// most of an expansion's cost — and the children are only counted, for a
// caller that knows they would never run.
func (t *SubtreeTask) expandExhaustive(cfg *ExplorerConfig, trace *RunTrace, build bool, ex *Expansion) {
	det := newLoopDetector(cfg.AutoLoopThreshold)
	budget, explorable := childBudget(t.Budget)
	for i, rec := range trace.Epochs {
		if rec.Chosen < 0 {
			continue // never completed; nothing to reproduce or flip
		}
		autoLoop := det.observe(rec)
		if autoLoop {
			ex.AutoAbstracted++
		}
		cfg.PruneHints.Observe(rec)
		if _, ok := t.Decisions.Lookup(rec.Rank, rec.LC); ok {
			continue // part of the forced prefix
		}
		pins := ex.DecisionPoints // new epochs observed before this one
		ex.DecisionPoints++
		if flip := t.Explorable && !rec.InLoop && !autoLoop && !cfg.PruneHints.ShouldPrune(rec); !flip || len(rec.Alternates) == 0 {
			continue
		}
		if !build {
			ex.unbuilt += len(rec.Alternates)
			continue
		}
		ex.flipStart = append(ex.flipStart, len(ex.Children))
		// Every alternate carries the same pins: the inherited decisions plus
		// each new epoch before this one at its observed choice (pin skips the
		// uncompleted and the already decided). Build them once, with room for
		// the flip, clone them for every alternate but the last, and give the
		// last the base itself.
		base := t.Decisions.CloneWithCapacity(pins + 1)
		base.pin(trace.Epochs[:i])
		for j, alt := range rec.Alternates {
			d := base
			if j < len(rec.Alternates)-1 {
				d = base.CloneWithCapacity(1)
			}
			d.Force(rec.ID(), alt)
			ex.Children = append(ex.Children, &SubtreeTask{
				Decisions:  d,
				Budget:     budget,
				Explorable: explorable,
				Depth:      t.Depth + 1,
			})
		}
	}
}

// Flippable is one record of a completed run eligible for flipping, with the
// prefix pins a child flipping it must carry. Samplers enumerate these to
// choose their next step.
type Flippable struct {
	// Rec is the flippable epoch (Chosen >= 0, at least one alternate).
	Rec *EpochRecord
	// Prefix holds the new epochs observed before Rec, in commit order; a
	// child pins each to its observed choice.
	Prefix []*EpochRecord
}

// FlippableRecords scans a completed run's trace with the exhaustive
// expansion's eligibility rules (skip never-completed and forced-prefix
// epochs, loop regions, auto-abstracted repetitions, statically pruned
// points) and returns the flip candidates. The scan is read-only: it does
// not feed the PruneHints cross-check or any counters, so callers that did
// not also run an expansion over the trace must call ObserveEpochs first
// (the hint cross-check is only sound if it sees every run's matches).
func (t *SubtreeTask) FlippableRecords(cfg *ExplorerConfig, trace *RunTrace) []Flippable {
	var out []Flippable
	det := newLoopDetector(cfg.AutoLoopThreshold)
	var prefix []*EpochRecord
	for _, rec := range trace.Epochs {
		if rec.Chosen < 0 {
			continue
		}
		autoLoop := det.observe(rec)
		if _, ok := t.Decisions.Lookup(rec.Rank, rec.LC); ok {
			continue
		}
		if len(rec.Alternates) > 0 && !rec.InLoop && !autoLoop && !cfg.PruneHints.WouldPrune(rec) {
			out = append(out, Flippable{Rec: rec, Prefix: prefix})
		}
		prefix = append(prefix, rec)
	}
	return out
}

// ObserveEpochs feeds every completed epoch of a trace to the static
// prune-hint cross-check, for expansion paths (sampled walk steps) that
// bypass ExpandExhaustive.
func ObserveEpochs(cfg *ExplorerConfig, trace *RunTrace) {
	if cfg.PruneHints == nil {
		return
	}
	for _, rec := range trace.Epochs {
		cfg.PruneHints.Observe(rec)
	}
}

// FlipChild builds the child task that flips f to the given alternate: the
// inherited decisions, plus f's prefix pinned to its observed choices, plus
// the flip — the same shape (and therefore the same dedup key) an exhaustive
// child of the same flip would have.
func (t *SubtreeTask) FlipChild(f Flippable, alt int) *SubtreeTask {
	d := t.Decisions.CloneWithCapacity(len(f.Prefix) + 1)
	d.pin(f.Prefix)
	d.Force(f.Rec.ID(), alt)
	return &SubtreeTask{
		Decisions:  d,
		Budget:     Unbounded,
		Explorable: true,
		Depth:      t.Depth + 1,
	}
}

// childBudget derives the mixing budget of frames discovered below a flip of
// a frame carrying the given budget: a zero budget forbids further flips, a
// positive one is decremented, and Unbounded (or any negative value) stays
// unbounded.
func childBudget(budget int) (int, bool) {
	switch {
	case budget == 0:
		return Unbounded, false
	case budget > 0:
		return budget - 1, true
	default:
		return Unbounded, true
	}
}

// loopDetector implements the paper's §VI future-work automatic loop
// detection over one run's epoch stream: per rank, consecutive epochs with
// an identical signature — same communicator, tag and operation kind —
// beyond the threshold are treated as iterations of a fixed communication
// pattern and not explored. A zero threshold disables detection.
type loopDetector struct {
	threshold int
	lastSig   map[int]epochSig
	runLen    map[int]int
}

type epochSig struct {
	comm, tag int
	kind      EpochKind
}

func newLoopDetector(threshold int) *loopDetector {
	d := &loopDetector{threshold: threshold}
	if threshold > 0 {
		d.lastSig = make(map[int]epochSig)
		d.runLen = make(map[int]int)
	}
	return d
}

// observe accounts one completed epoch and reports whether it falls beyond
// the consecutive-signature threshold (auto-abstracted).
func (d *loopDetector) observe(rec *EpochRecord) bool {
	if d.threshold <= 0 {
		return false
	}
	s := epochSig{comm: rec.CommID, tag: rec.Tag, kind: rec.Kind}
	if d.lastSig[rec.Rank] == s {
		d.runLen[rec.Rank]++
	} else {
		d.lastSig[rec.Rank] = s
		d.runLen[rec.Rank] = 1
	}
	return d.runLen[rec.Rank] > d.threshold
}
