// Package sample is the schedule-sampling subsystem: seeded, deterministic
// exploration policies over the (enlarged) epoch-decision space for programs
// whose interleaving space exhaustive DFS cannot finish. A Sampler plugs
// into the engines at the one seam they all share — SubtreeTask.Expand — so
// the same seeded walk runs identically on the serial engine, the
// in-process lease engine (dexplore), and a dcoord worker cluster.
//
// The sampled space is organized as W independent walks over the flip tree.
// Each walk step is an ordinary SubtreeTask whose Sample field carries the
// walk's generator state: the task replays its decision vector (one sampled
// schedule), and expanding the completed run derives at most one child — the
// next step — by flipping one eligible record of the fresh trace. Because
// the child is a pure function of (task, trace), a walk is reproducible and
// engine-independent, and because each step is a prefix-pinned flip child,
// sampled decision vectors live in the same space as exhaustive ones (every
// sampled vector is a node of the exhaustive flip tree).
package sample

import (
	"fmt"

	"dampi/internal/core"
)

// Strategy selects the sampling policy.
type Strategy string

// Strategies.
const (
	// Random is the uniform random walk: each step flips a uniformly chosen
	// eligible record to a uniformly chosen alternate.
	Random Strategy = "random"
	// PCT is the PCT-style priority schedule: each walk draws a priority
	// permutation over decision values; each step flips the first record (in
	// commit order) whose highest-priority candidate differs from the
	// observed choice. Priorities are re-drawn at change points.
	PCT Strategy = "pct"
)

// ParseStrategy validates a strategy name ("" means Random).
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", Random:
		return Random, nil
	case PCT:
		return PCT, nil
	}
	return "", fmt.Errorf("sample: unknown strategy %q (want %q or %q)", s, Random, PCT)
}

// maxWalks bounds the number of independent walks; the sample budget is
// spread over min(Samples, maxWalks) walks. Derived from the configuration
// only — never from worker or CPU counts — so every engine derives the same
// schedule set.
const maxWalks = 8

// Config parameterizes a sampler.
type Config struct {
	// Strategy is the sampling policy (default Random).
	Strategy Strategy
	// Samples is the total sampled-schedule budget, spread over the walks.
	Samples int
	// Seed derives every walk's generator stream; same seed, same schedules.
	Seed uint64
	// Procs sizes the PCT priority space (decision values are folded into
	// [0, Procs)).
	Procs int
}

// Sampler implements core.Sampler: seeded random-walk / PCT-style schedule
// sampling over the flip tree, with a depth-bounded exhaustive zone.
type Sampler struct {
	cfg   Config
	walks int
	steps int // per-walk step budget
}

// New builds a sampler. Samples < 1 defaults to 1; Procs < 1 to 1.
func New(cfg Config) *Sampler {
	if cfg.Samples < 1 {
		cfg.Samples = 1
	}
	if cfg.Procs < 1 {
		cfg.Procs = 1
	}
	if cfg.Strategy == "" {
		cfg.Strategy = Random
	}
	w := cfg.Samples
	if w > maxWalks {
		w = maxWalks
	}
	return &Sampler{
		cfg:   cfg,
		walks: w,
		steps: (cfg.Samples + w - 1) / w,
	}
}

// Config returns the (normalized) configuration the sampler was built with:
// two samplers with equal Configs derive identical schedule sets from
// identical traces. dexplore.SpaceOf reads it back into the exploration's
// identity — what checkpoints, job specs and the cluster handshake compare.
func (s *Sampler) Config() Config { return s.cfg }

// Walks returns the number of independent walks.
func (s *Sampler) Walks() int { return s.walks }

// StepsPerWalk returns each walk's step budget.
func (s *Sampler) StepsPerWalk() int { return s.steps }

// Expand implements core.Sampler. Non-walk tasks expand exhaustively while
// above the sampling frontier (Depth < SampleDepth) and scan-only below it;
// the root task additionally seeds the walks from its self-discovery trace.
// Walk tasks derive at most their next step.
func (s *Sampler) Expand(t *core.SubtreeTask, cfg *core.ExplorerConfig, trace *core.RunTrace) *core.Expansion {
	if t.Sample != nil {
		return s.step(t, cfg, trace)
	}
	var ex *core.Expansion
	if t.Depth >= cfg.SampleDepth {
		// Below the exhaustive frontier: keep the scan (decision-point
		// counts, prune-hint observation) but spawn no exhaustive children.
		tt := *t
		tt.Explorable = false
		ex = tt.ExpandExhaustive(cfg, trace)
	} else {
		ex = t.ExpandExhaustive(cfg, trace)
	}
	if t.Depth == 0 && t.Decisions.Empty() {
		s.seedWalks(t, cfg, trace, ex)
	}
	return ex
}

// seedWalks derives each walk's first step from the root trace and appends
// the step tasks to the root expansion.
func (s *Sampler) seedWalks(root *core.SubtreeTask, cfg *core.ExplorerConfig, trace *core.RunTrace, ex *core.Expansion) {
	flips := root.FlippableRecords(cfg, trace)
	if len(flips) == 0 {
		return
	}
	for w := 0; w < s.walks; w++ {
		st := &core.SampleState{Walk: w, Step: 0, Rng: walkSeed(s.cfg.Seed, w)}
		if child := s.derive(root, flips, st); child != nil {
			ex.Children = append(ex.Children, child)
		}
	}
}

// step expands one completed walk-step run into the walk's next step (or
// nothing, when the step budget is spent or the trace has nothing left to
// flip). The run's epochs still feed the prune-hint cross-check.
func (s *Sampler) step(t *core.SubtreeTask, cfg *core.ExplorerConfig, trace *core.RunTrace) *core.Expansion {
	core.ObserveEpochs(cfg, trace)
	ex := &core.Expansion{}
	if t.Sample.Step >= s.steps {
		return ex
	}
	flips := t.FlippableRecords(cfg, trace)
	if len(flips) == 0 {
		return ex
	}
	if child := s.derive(t, flips, t.Sample); child != nil {
		ex.Children = append(ex.Children, child)
	}
	return ex
}

// derive builds the next step of a walk whose previous state is prev: it
// advances the generator, picks one (record, alternate) flip per the
// strategy, and returns the prefix-pinned flip child carrying the new state.
// A nil return ends the walk (PCT converged: every record already matches
// its priority-preferred candidate).
func (s *Sampler) derive(t *core.SubtreeTask, flips []core.Flippable, prev *core.SampleState) *core.SubtreeTask {
	st := prev.Clone()
	st.Step = prev.Step + 1
	var child *core.SubtreeTask
	if s.cfg.Strategy == PCT {
		child = s.pctFlip(t, flips, st)
	} else {
		child = s.randomFlip(t, flips, st)
	}
	if child != nil {
		child.Sample = st
	}
	return child
}

// randomFlip picks a uniform (record, alternate) pair.
func (s *Sampler) randomFlip(t *core.SubtreeTask, flips []core.Flippable, st *core.SampleState) *core.SubtreeTask {
	f := flips[pick(&st.Rng, len(flips))]
	alt := f.Rec.Alternates[pick(&st.Rng, len(f.Rec.Alternates))]
	return t.FlipChild(f, alt)
}

// pctChangeInterval spaces the PCT priority change points: the permutation
// is re-drawn every few steps of a walk, mirroring PCT's d-1 priority
// change points over a schedule.
const pctChangeInterval = 3

// pctFlip scans the flippable records in commit order under the walk's
// priority permutation and flips the first record whose highest-priority
// candidate (over {chosen} ∪ alternates, values folded mod Procs) is not the
// observed choice. Returns nil when the schedule already agrees with the
// priorities everywhere — the walk has converged.
func (s *Sampler) pctFlip(t *core.SubtreeTask, flips []core.Flippable, st *core.SampleState) *core.SubtreeTask {
	if len(st.Prio) == 0 || st.Step >= st.NextChange {
		st.Prio = permutation(&st.Rng, s.cfg.Procs)
		st.NextChange = st.Step + pctChangeInterval
	}
	prio := func(v int) int {
		i := v % s.cfg.Procs
		if i < 0 {
			i += s.cfg.Procs
		}
		return st.Prio[i]
	}
	for _, f := range flips {
		best, bestP := f.Rec.Chosen, prio(f.Rec.Chosen)
		for _, alt := range f.Rec.Alternates {
			if p := prio(alt); p > bestP || (p == bestP && alt < best) {
				best, bestP = alt, p
			}
		}
		if best != f.Rec.Chosen {
			return t.FlipChild(f, best)
		}
	}
	return nil
}
