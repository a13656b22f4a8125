package dexplore

import "testing"

// TestFrontierGrantRule pins the one grant rule both multi-worker engines
// run: ceil(live/(2·slots)) roots oldest first, floored at minLeaseRoots — or
// at an equal part of what is live for each idle slot, if that is less, so
// the grants after the root run fan out — and at most maxRoots; under a cap
// the same share of what it has room for, floored at minLeaseBudget while that
// much remains, never more roots than replays; the root alone with one
// replay; nothing without subtrees or room; and the same budget, subtrees or
// not, for a slot that keeps its own (Renew).
func TestFrontierGrantRule(t *testing.T) {
	cases := []struct {
		name                           string
		live, max, merged, outstanding int
		held                           int // grants out: the slots that are not idle
		rootPending                    bool
		slots, maxRoots                int
		roots, budget                  int
		renew                          int // Renew's budget; -1 = refused
	}{
		{name: "guided share", live: 40, slots: 2, maxRoots: 16, roots: 10},
		{name: "root floor", live: 10, held: 1, slots: 2, maxRoots: 16, roots: 8},
		{name: "root floor takes what is left", live: 5, held: 1, slots: 2, maxRoots: 16, roots: 5},
		{name: "equal part of two idle slots", live: 10, slots: 2, maxRoots: 16, roots: 5},
		{name: "equal part of three of four", live: 10, held: 1, slots: 4, maxRoots: 16, roots: 4},
		{name: "one each", live: 4, slots: 4, maxRoots: 16, roots: 1},
		{name: "share of one", live: 1, slots: 4, maxRoots: 16, roots: 1},
		{name: "root bound", live: 1000, slots: 2, maxRoots: 16, roots: 16},
		{name: "shrunk root bound", live: 1000, slots: 2, maxRoots: 3, roots: 3},
		{name: "empty", live: 0, slots: 2, maxRoots: 16},
		{name: "root alone", live: 5, rootPending: true, slots: 2, maxRoots: 16, roots: 1, budget: 1},
		{name: "capped share", live: 100, max: 4000, merged: 1000, outstanding: 1000, slots: 2, maxRoots: 16, roots: 16, budget: 500, renew: 500},
		{name: "budget floor", live: 100, max: 4000, merged: 3980, slots: 2, maxRoots: 16, roots: 8, budget: 8, renew: 8},
		{name: "last of the cap", live: 100, max: 4000, merged: 3990, outstanding: 7, slots: 2, maxRoots: 16, roots: 3, budget: 3, renew: 3},
		{name: "cap all held", live: 100, max: 4000, merged: 3990, outstanding: 10, slots: 2, maxRoots: 16, renew: -1},
	}
	for _, tc := range cases {
		f := Frontier[int]{Tasks: make([]int, tc.live), Max: tc.max, RootDone: !tc.rootPending, held: tc.held, outstanding: tc.outstanding}
		for i := range f.Tasks {
			f.Tasks[i] = i
		}
		roots, budget := f.Grant(tc.slots, tc.maxRoots, tc.merged)
		if len(roots) != tc.roots || budget != tc.budget {
			t.Errorf("%s: granted %d roots and %d replays, want %d and %d", tc.name, len(roots), budget, tc.roots, tc.budget)
			continue
		}
		granted := 0
		if tc.roots > 0 {
			granted = 1
		}
		if f.held != tc.held+granted || f.outstanding != tc.outstanding+tc.budget || len(f.Tasks) != tc.live-tc.roots {
			t.Errorf("%s: after the grant %d held, %d outstanding, %d live", tc.name, f.held, f.outstanding, len(f.Tasks))
		}
		for i, r := range roots {
			if r != i {
				t.Errorf("%s: root %d is subtree %d, want the oldest first", tc.name, i, r)
			}
		}
		if granted == 1 {
			if f.Finishable(tc.merged, true) {
				t.Errorf("%s: finishable with a grant out", tc.name)
			}
			f.Release(budget)
			if f.held != tc.held || f.outstanding != tc.outstanding {
				t.Errorf("%s: after the release %d held, %d outstanding", tc.name, f.held, f.outstanding)
			}
		}
		// A slot keeping its subtrees gets the same share of the cap, whatever
		// the frontier holds, and is refused only for room.
		if renewed, ok := f.Renew(tc.slots, tc.merged); ok != (tc.renew >= 0) || (ok && renewed != tc.renew) {
			t.Errorf("%s: renewed with %d replays, ok=%v; want %d", tc.name, renewed, ok, tc.renew)
		}
	}
}
