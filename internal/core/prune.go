package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Static prune hints: the schedule generator's bridge to the static
// communication-graph analysis (internal/commgraph). A hint is a
// statically derived superset of the senders a wildcard decision point can
// observe, keyed the way the dynamic engine keys epochs: receiving rank,
// posted tag, recv-vs-probe. When a hint set is a singleton, every
// alternate at that decision point is statically known to be either
// infeasible or — in the one dimension static analysis is finer than the
// runtime matcher, payload type — would decode garbage; the explorer skips
// branching there and counts the skipped alternates as pruned.
//
// The refinement makes hints a heuristic, not a proof, so every epoch is
// cross-checked: if an observed match falls outside its hint set, the
// static model was wrong about this program, the whole hint table is
// disabled for the remainder of the exploration (falling back to full
// branching), and the violation is surfaced as a diagnostic. Pruned-before
// counts are NOT rolled back; the run's report flags PruneDisabled so the
// caller knows coverage may have been reduced before the fallback.

// PruneHintKey identifies one wildcard decision point class.
type PruneHintKey struct {
	// Rank is the receiving rank.
	Rank int `json:"rank"`
	// Tag is the posted receive/probe tag (-1 for AnyTag).
	Tag int `json:"tag"`
	// Probe distinguishes probe epochs from receive epochs.
	Probe bool `json:"probe,omitempty"`
}

func (k PruneHintKey) String() string {
	kind := "recv"
	if k.Probe {
		kind = "probe"
	}
	return fmt.Sprintf("%s{rank=%d tag=%d}", kind, k.Rank, k.Tag)
}

// PruneViolation records one observed match outside its static hint set.
type PruneViolation struct {
	Key      PruneHintKey `json:"key"`
	Observed int          `json:"observed"`
	Senders  []int        `json:"senders"`
}

func (v PruneViolation) String() string {
	return fmt.Sprintf("static prune hint violated at %s: observed sender %d outside static set %v",
		v.Key, v.Observed, v.Senders)
}

// PruneHints is a shared, concurrency-safe hint table. A nil *PruneHints is
// valid and prunes nothing. The same table may be shared by many replay
// slots at once: disabling is a one-way atomic flip visible to all.
type PruneHints struct {
	sets map[PruneHintKey][]int

	disabled atomic.Bool
	pruned   atomic.Int64

	vmu        sync.Mutex
	violations []PruneViolation
}

// NewPruneHints builds a hint table. Entries with empty sender sets are
// ignored (an empty set would claim the decision point can never complete,
// which the static analysis is not entitled to assert).
func NewPruneHints(sets map[PruneHintKey][]int) *PruneHints {
	h := &PruneHints{sets: make(map[PruneHintKey][]int, len(sets))}
	for k, v := range sets {
		if len(v) == 0 {
			continue
		}
		h.sets[k] = append([]int(nil), v...)
	}
	if len(h.sets) == 0 {
		return nil
	}
	return h
}

func (h *PruneHints) key(rec *EpochRecord) (PruneHintKey, []int, bool) {
	// Hints are derived for the world communicator only, and only for the
	// message-match epoch kinds the static analysis models: a completion or
	// outcome epoch (Waitany index, Iprobe flag) encodes no sender and must
	// not be classified as a recv/probe hint.
	if rec.CommID != 0 || !rec.Kind.MatchKind() {
		return PruneHintKey{}, nil, false
	}
	k := PruneHintKey{Rank: rec.Rank, Tag: rec.Tag, Probe: rec.Kind == ProbeEpoch}
	set, ok := h.sets[k]
	return k, set, ok
}

// Observe cross-checks one completed epoch against its hint set. It must be
// called for every completed epoch of every run while hints are in use,
// whether or not the epoch is pruned: soundness depends on seeing the
// matches of runs that branched normally too.
func (h *PruneHints) Observe(rec *EpochRecord) {
	if h == nil || rec == nil || rec.Chosen < 0 {
		return
	}
	k, set, ok := h.key(rec)
	if !ok {
		return
	}
	for _, s := range set {
		if s == rec.Chosen {
			return
		}
	}
	// Observed match outside the static set: the model is wrong here.
	h.vmu.Lock()
	h.violations = append(h.violations, PruneViolation{
		Key:      k,
		Observed: rec.Chosen,
		Senders:  append([]int(nil), set...),
	})
	h.vmu.Unlock()
	h.disabled.Store(true)
}

// ShouldPrune reports whether branching at rec may be skipped: hints are
// still enabled, the epoch's hint set is a singleton, and the observed
// match is that singleton. The epoch's alternates are accounted as pruned.
func (h *PruneHints) ShouldPrune(rec *EpochRecord) bool {
	if h == nil || rec == nil || rec.Chosen < 0 || len(rec.Alternates) == 0 {
		return false
	}
	if h.disabled.Load() {
		return false
	}
	_, set, ok := h.key(rec)
	if !ok || len(set) != 1 || set[0] != rec.Chosen {
		return false
	}
	h.pruned.Add(int64(len(rec.Alternates)))
	return true
}

// WouldPrune is the read-only form of ShouldPrune: it reports whether
// branching at rec would be skipped without accounting the alternates as
// pruned. The sampling subsystem uses it to keep walks off statically
// deterministic decision points without double-counting the exhaustive
// zone's statistics.
func (h *PruneHints) WouldPrune(rec *EpochRecord) bool {
	if h == nil || rec == nil || rec.Chosen < 0 || len(rec.Alternates) == 0 {
		return false
	}
	if h.disabled.Load() {
		return false
	}
	_, set, ok := h.key(rec)
	return ok && len(set) == 1 && set[0] == rec.Chosen
}

// Restore resumes the table from the state a checkpoint saved: the pruned
// count continues from pruned, and a table a violation had switched off
// stays off, with the evidence kept.
func (h *PruneHints) Restore(pruned int, disabled bool, violations []PruneViolation) {
	if h == nil {
		return
	}
	h.pruned.Store(int64(pruned))
	h.disabled.Store(disabled)
	h.vmu.Lock()
	h.violations = append([]PruneViolation(nil), violations...)
	h.vmu.Unlock()
}

// Pruned returns the number of alternate branches skipped so far.
func (h *PruneHints) Pruned() int {
	if h == nil {
		return 0
	}
	return int(h.pruned.Load())
}

// Disabled reports whether a violation has switched the table off.
func (h *PruneHints) Disabled() bool {
	return h != nil && h.disabled.Load()
}

// Violations returns the recorded hint violations.
func (h *PruneHints) Violations() []PruneViolation {
	if h == nil {
		return nil
	}
	h.vmu.Lock()
	defer h.vmu.Unlock()
	return append([]PruneViolation(nil), h.violations...)
}
