package commgraph

import (
	"fmt"
	"sort"
)

// HintKey identifies a wildcard decision point the way the dynamic engine
// keys its epochs: the receiving rank, the posted tag (-1 for AnyTag), and
// whether the epoch comes from a probe or a receive.
type HintKey struct {
	Rank  int
	Tag   int
	Probe bool
}

// Hints derives, at a concrete world size, the static sender set of every
// wildcard decision point it can key: the sorted ranks whose sends can
// match there. The sets come from the unrefined match sets (payload types
// play no part, as in the runtime matcher), so each is a superset of the
// senders any execution can match. Derivation is deliberately conservative:
//
//   - an incomplete summary yields no sets at all;
//   - a wildcard site whose tag cannot be resolved drops every set of its
//     rank (its epochs could collide with any key);
//   - sites that may execute (conditional, in-loop) still contribute their
//     senders, so the union covers every execution path.
func Hints(sum *Summary, size int) (map[HintKey][]int, []string) {
	if sum == nil {
		return nil, []string{"no program summary"}
	}
	if !sum.Complete {
		return nil, append([]string{fmt.Sprintf("summary of %s is incomplete; no hints", sum.Name)}, sum.Notes...)
	}
	g := sum.Instantiate(size)
	sets := map[HintKey]map[int]bool{}
	poisoned := map[int]bool{}
	var notes []string
	for r := 0; r < size; r++ {
		for _, st := range g.Sites[r] {
			if !st.Op.Wildcard() || !st.MayMatch {
				continue
			}
			if !st.TagKnown {
				if !poisoned[r] {
					poisoned[r] = true
					notes = append(notes, fmt.Sprintf("rank %d has a wildcard %s with an unresolved tag; rank excluded from hints", r, st.Op.Kind))
				}
				continue
			}
			key := HintKey{Rank: r, Tag: st.Tag, Probe: st.Op.Kind == OpProbe}
			set := sets[key]
			if set == nil {
				set = map[int]bool{}
				sets[key] = set
			}
			for _, s := range g.MatchSet(st, false) {
				set[s] = true
			}
		}
	}
	var out map[HintKey][]int
	for key, set := range sets {
		if poisoned[key.Rank] || len(set) == 0 {
			continue
		}
		senders := make([]int, 0, len(set))
		for s := range set {
			senders = append(senders, s)
		}
		sort.Ints(senders)
		if out == nil {
			out = map[HintKey][]int{}
		}
		out[key] = senders
	}
	return out, notes
}
