package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// referenceExpand is the exhaustive expansion as it was before it became one
// pass, kept as the reference the one-pass expansion is compared against: it
// tells the forced prefix apart by looking each record up in the task's
// decisions, not by its Guided mark, and builds every flipped epoch's
// children from a fresh clone of the inherited decisions with each new epoch
// before the flip forced to its observed choice (the first of a repeated
// record winning).
func referenceExpand(t *SubtreeTask, cfg *ExplorerConfig, trace *RunTrace, build bool) *Expansion {
	ex := &Expansion{}
	det := newLoopDetector(cfg.AutoLoopThreshold)
	budget, explorable := childBudget(t.Budget)
	for i, rec := range trace.Epochs {
		if rec.Chosen < 0 {
			continue
		}
		autoLoop := det.observe(rec)
		if autoLoop {
			ex.AutoAbstracted++
		}
		if _, ok := t.Decisions.Lookup(rec.Rank, rec.LC); ok {
			continue
		}
		ex.DecisionPoints++
		if !t.Explorable || rec.InLoop || autoLoop || len(rec.Alternates) == 0 {
			continue
		}
		if !build {
			ex.unbuilt += len(rec.Alternates)
			continue
		}
		ex.flipStart = append(ex.flipStart, len(ex.Children))
		base := t.Decisions.Clone()
		for _, prev := range trace.Epochs[:i] {
			if prev.Chosen < 0 {
				continue
			}
			if _, ok := base.Lookup(prev.Rank, prev.LC); !ok {
				base.Force(prev.ID(), prev.Chosen)
			}
		}
		for _, alt := range rec.Alternates {
			d := base.Clone()
			d.Force(rec.ID(), alt)
			ex.Children = append(ex.Children, &SubtreeTask{
				Decisions:  d,
				Budget:     budget,
				Explorable: explorable,
				Depth:      t.Depth + 1,
			})
		}
	}
	return ex
}

// expansionDiff expands t's run both ways — the product's expansion into ex
// (reused, as a search reuses its own) and the reference — and describes the
// first way they differ, or returns "": the counters, then every child in
// stack order, whose prefix node must flatten to the reference's clone.
// Neither may change the task's decisions.
func expansionDiff(t *SubtreeTask, cfg *ExplorerConfig, trace *RunTrace, build bool, ex *Expansion) string {
	before := t.Decisions.String()
	got := t.expand(cfg, trace, build, ex)
	want := referenceExpand(t, cfg, trace, build)
	if after := t.Decisions.String(); after != before {
		return fmt.Sprintf("task decisions changed: %s -> %s", before, after)
	}
	if got.DecisionPoints != want.DecisionPoints || got.AutoAbstracted != want.AutoAbstracted || got.unbuilt != want.unbuilt {
		return fmt.Sprintf("counters (decision points, auto-abstracted, unbuilt) = (%d, %d, %d), reference (%d, %d, %d)",
			got.DecisionPoints, got.AutoAbstracted, got.unbuilt, want.DecisionPoints, want.AutoAbstracted, want.unbuilt)
	}
	if !slices.Equal(got.flipStart, want.flipStart) {
		return fmt.Sprintf("flipped epochs start at %v, reference %v", got.flipStart, want.flipStart)
	}
	gs, ws := got.stackOrder(), want.stackOrder()
	if len(gs) != len(ws) {
		return fmt.Sprintf("%d children, reference %d", len(gs), len(ws))
	}
	for i, c := range gs {
		w := ws[i]
		if !slices.Equal(flatEntries(c.Decisions), w.Decisions.entries) || c.Budget != w.Budget || c.Explorable != w.Explorable || c.Depth != w.Depth || c.Sample != nil {
			return fmt.Sprintf("stack entry %d = %s budget %d explorable %v depth %d, reference %s budget %d explorable %v depth %d",
				i, c.Decisions, c.Budget, c.Explorable, c.Depth, w.Decisions, w.Budget, w.Explorable, w.Depth)
		}
	}
	return ""
}

// randomTrace builds a synthetic trace against the forced decisions d: a few
// ranks' records in a random interleaving, LCs mostly ascending per rank but
// sometimes repeating a key, some never completed, some in loop regions, and
// signatures from a small set so automatic loop detection fires. A record is
// Guided exactly when d decides its key, as a run under d marks it.
func randomTrace(rng *rand.Rand, d *Decisions) *RunTrace {
	const ranks = 4
	var lc [ranks]uint64
	tr := &RunTrace{}
	for i, n := 0, rng.Intn(24); i < n; i++ {
		r := rng.Intn(ranks)
		if rng.Intn(6) > 0 { // else repeat the rank's last key
			lc[r] += uint64(1 + rng.Intn(2))
		}
		rec := &EpochRecord{
			Rank: r, LC: lc[r], Tag: rng.Intn(2), Kind: EpochKind(rng.Intn(2)),
			Chosen: rng.Intn(ranks), InLoop: rng.Intn(8) == 0, Order: uint64(i + 1),
		}
		if rng.Intn(7) == 0 {
			rec.Chosen = -1
		}
		for a, alts := 0, rng.Intn(4); a < alts; a++ {
			rec.Alternates = append(rec.Alternates, rng.Intn(ranks))
		}
		_, rec.Guided = d.Lookup(rec.Rank, rec.LC)
		tr.Epochs = append(tr.Epochs, rec)
	}
	return tr
}

// TestOnePassExpansionMatchesReference: on seeded random synthetic traces —
// uncompleted records, repeated keys, loop regions, an automatic loop
// threshold, forced prefixes, every mixing budget, unexplorable tasks, and
// count-only expansions, tasks whose own prefix is a node — the one-pass
// expansion derives exactly the reference's children, in the same stack
// order, and the same counters.
func TestOnePassExpansionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ex := &Expansion{}
	for round := 0; round < 3000; round++ {
		var d *Decisions
		if rng.Intn(4) > 0 {
			d = NewDecisions()
			for i, n := 0, rng.Intn(8); i < n; i++ {
				d.Force(EpochID{Rank: rng.Intn(4), LC: uint64(rng.Intn(12))}, rng.Intn(4))
			}
			if rng.Intn(2) == 0 {
				var pins []decision
				for i, n := 0, rng.Intn(6); i < n; i++ {
					pins = append(pins, newDecision(rng.Intn(4), uint64(rng.Intn(12)), rng.Intn(4)))
				}
				d = d.child(pins, newDecision(rng.Intn(4), uint64(rng.Intn(12)), rng.Intn(4)))
			}
		}
		task := &SubtreeTask{
			Decisions:  d,
			Budget:     []int{Unbounded, 0, 1, 2}[rng.Intn(4)],
			Explorable: rng.Intn(5) > 0,
			Depth:      rng.Intn(4),
		}
		cfg := &ExplorerConfig{Procs: 4, AutoLoopThreshold: rng.Intn(3)}
		trace := randomTrace(rng, d)
		build := rng.Intn(4) > 0
		if diff := expansionDiff(task, cfg, trace, build, ex); diff != "" {
			t.Fatalf("round %d (decisions %s, budget %d, explorable %v, threshold %d, build %v): %s",
				round, d, task.Budget, task.Explorable, cfg.AutoLoopThreshold, build, diff)
		}
	}
}
