// Static match sets: the static communication-graph analysis
// (internal/commgraph, extracted by internal/mpilint) asked which senders can
// match each wildcard decision point. The sets ignore payload types, as the
// runtime matcher does, so every match an exploration observes lies inside
// them. The explorer does not consume them: it explores every match the
// runtime can make.
package verify

import (
	"fmt"

	"dampi/internal/commgraph"
	"dampi/internal/mpilint"
)

// WildcardKey identifies a wildcard decision point the way the explorer
// keys its epochs: the receiving world rank, the posted tag (AnyTag for a
// wildcard tag), and whether the epoch is a probe's.
type WildcardKey = commgraph.HintKey

// StaticHints statically analyzes the Go package or file at path, locates
// its program root (a function of the exact shape func(p *mpi.Proc) error),
// and derives, for a world of procs ranks, the sorted set of senders that
// can match each world-communicator wildcard decision point it can key. A
// point without an entry is one the analysis makes no claim about.
//
// The returned notes explain, in order, every reason coverage was reduced
// (incomplete summaries, unresolvable wildcard tags). When no set can be
// derived — no root, multiple roots (which one will be verified is
// unknowable statically), or an incomplete summary — the table is nil and
// the notes say why.
func StaticHints(path string, procs int) (map[WildcardKey][]int, []string, error) {
	if procs < 1 {
		return nil, nil, fmt.Errorf("verify: StaticHints procs must be >= 1, got %d", procs)
	}
	sums, err := mpilint.ProgramSummaries([]string{path}, mpilint.Options{})
	if err != nil {
		return nil, nil, err
	}
	var complete []*commgraph.Summary
	var notes []string
	for _, s := range sums {
		if s.Complete {
			complete = append(complete, s)
		} else {
			notes = append(notes, fmt.Sprintf("%s (%s:%d): summary incomplete: not used for hints", s.Name, s.File, s.Line))
			notes = append(notes, s.Notes...)
		}
	}
	switch len(complete) {
	case 0:
		if len(sums) == 0 {
			notes = append(notes, "no program root (func(p *mpi.Proc) error) found; no hints")
		} else {
			notes = append(notes, "no complete program summary; no hints")
		}
		return nil, notes, nil
	case 1:
	default:
		notes = append(notes, fmt.Sprintf("%d program roots found; cannot tell which will run, no hints", len(complete)))
		return nil, notes, nil
	}
	sets, hnotes := commgraph.Hints(complete[0], procs)
	return sets, append(notes, hnotes...), nil
}
