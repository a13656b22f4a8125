package core

import (
	"math/rand"
	"slices"
	"testing"

	"dampi/workloads/adlb"
	"dampi/workloads/matmul"
)

// flatEntries returns the flat set d stands for as fresh entries (nil for an
// empty or nil set).
func flatEntries(d *Decisions) []decision {
	var out Decisions
	if f := d.flattenInto(&out); f != nil && len(f.entries) > 0 {
		return slices.Clone(f.entries)
	}
	return nil
}

// clonedChild is the child prefix as a chain of clones builds it: a copy of
// the parent's set, each pin put where the key is still free (the inherited
// decisions and the first of a repeated key win), then the flip forced.
func clonedChild(parent *Decisions, pins []decision, flip decision) *Decisions {
	d := parent.Clone()
	for _, p := range pins {
		d.put(p, false)
	}
	d.put(flip, true)
	return d
}

// TestFlattenMatchesClonedChain: a chain of prefix nodes flattens to exactly
// the set a chain of clones builds — on random chains whose pins repeat keys
// and collide with inherited decisions and with their own flip — and every
// read of a node (Len, Lookup, Within, String, JSON, InRange, Clone) answers
// as that flat set does. Flattening changes no node.
func TestFlattenMatchesClonedChain(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	key := func() decision {
		return newDecision(rng.Intn(3), uint64(rng.Intn(6)), rng.Intn(4))
	}
	for round := 0; round < 2000; round++ {
		var top *Decisions
		if rng.Intn(3) > 0 {
			top = NewDecisions()
			for i, n := 0, rng.Intn(5); i < n; i++ {
				top.put(key(), true)
			}
		}
		node, ref := top, top.Clone()
		var arrays [][]decision
		for depth, n := 0, 1+rng.Intn(5); depth < n; depth++ {
			pins := make([]decision, 0, 8)
			for i, m := 0, rng.Intn(8); i < m; i++ {
				pins = append(pins, key())
			}
			view := pins[:rng.Intn(len(pins)+1)]
			flip := key()
			node, ref = node.child(view, flip), clonedChild(ref, view, flip)
			arrays = append(arrays, pins)
		}
		before := make([][]decision, len(arrays))
		for i, a := range arrays {
			before[i] = slices.Clone(a)
		}
		if got, want := flatEntries(node), ref.entries; !slices.Equal(got, want) {
			t.Fatalf("round %d: chain flattens to %v, clones build %v", round, got, want)
		}
		for i, a := range arrays {
			if !slices.Equal(a, before[i]) {
				t.Fatalf("round %d: flattening changed a pins array: %v -> %v", round, before[i], a)
			}
		}
		if node.Len() != ref.Len() || node.String() != ref.String() || node.Empty() {
			t.Fatalf("round %d: node reads Len %d %s, flat %d %s", round, node.Len(), node, ref.Len(), ref)
		}
		nj, _ := node.MarshalJSON()
		rj, _ := ref.MarshalJSON()
		if string(nj) != string(rj) {
			t.Fatalf("round %d: node marshals %s, flat %s", round, nj, rj)
		}
		if !node.Within(ref) || !ref.Within(node) {
			t.Fatalf("round %d: node %s and flat %s are not within each other", round, node, ref)
		}
		if (node.InRange(3, false) == nil) != (ref.InRange(3, false) == nil) {
			t.Fatalf("round %d: InRange differs between node and flat", round)
		}
		if c := node.Clone(); c.isNode() || !slices.Equal(c.entries, ref.entries) {
			t.Fatalf("round %d: Clone of a node = %v, want the flat %v", round, c.entries, ref.entries)
		}
		for r := 0; r < 3; r++ {
			for lc := uint64(0); lc < 6; lc++ {
				gs, gok := node.Lookup(r, lc)
				ws, wok := ref.Lookup(r, lc)
				if gs != ws || gok != wok {
					t.Fatalf("round %d: Lookup(%d,%d) = %d,%v on the node, %d,%v flat", round, r, lc, gs, gok, ws, wok)
				}
			}
		}
	}
}

// TestChildPrefixRepeatAndCollision: a repeated record pins its first choice,
// a record the run did not mark Guided although the inherited decisions hold
// its key keeps the inherited decision, and a flip replaces a pin of its own
// key — for exhaustive children and FlipChild alike, two levels deep.
func TestChildPrefixRepeatAndCollision(t *testing.T) {
	parent := NewDecisions()
	parent.Force(EpochID{Rank: 0, LC: 1}, 2)
	task := &SubtreeTask{Decisions: parent, Budget: Unbounded, Explorable: true}
	recs := []*EpochRecord{
		{Rank: 1, LC: 3, Chosen: 0, Order: 1},
		{Rank: 1, LC: 3, Chosen: 1, Order: 2},                       // repeated: the first pin wins
		{Rank: 0, LC: 1, Chosen: 3, Order: 3},                       // collides with the inherited r0@1→2
		{Rank: 1, LC: 3, Chosen: 2, Alternates: []int{0}, Order: 4}, // flips a pinned key
		{Rank: 2, LC: 5, Chosen: 0, Alternates: []int{1, 2}, Order: 5},
	}
	cfg := &ExplorerConfig{Procs: 4}
	ex := task.ExpandExhaustive(cfg, &RunTrace{Epochs: recs})
	want := []string{
		"{r0:[1→2] r1:[3→0]}",
		"{r0:[1→2] r1:[3→0] r2:[5→1]}",
		"{r0:[1→2] r1:[3→0] r2:[5→2]}",
	}
	if len(ex.Children) != len(want) {
		t.Fatalf("%d children, want %d", len(ex.Children), len(want))
	}
	for i, c := range ex.Children {
		if !c.Decisions.isNode() || c.Decisions.parent != parent {
			t.Errorf("child %d is not a node on the task's set", i)
		}
		if got := c.Decisions.String(); got != want[i] {
			t.Errorf("child %d = %s, want %s", i, got, want[i])
		}
	}
	flips := task.FlippableRecords(cfg, &RunTrace{Epochs: recs})
	for i, f := range flips {
		for j, alt := range f.Rec.Alternates {
			if got, w := task.FlipChild(f, alt).Decisions.String(), ex.Children[i+j].Decisions.String(); got != w {
				t.Errorf("FlipChild(%d, %d) = %s, exhaustive child %s", i, alt, got, w)
			}
		}
	}
	// One level deeper, under the last child: its run marks the forced
	// prefix Guided, repeats a new record and collides with the flip.
	grand := ex.Children[2]
	recs = []*EpochRecord{
		{Rank: 2, LC: 5, Chosen: 2, Guided: true, Order: 1},
		{Rank: 3, LC: 0, Chosen: 1, Order: 2},
		{Rank: 2, LC: 5, Chosen: 0, Order: 3}, // not marked Guided: the flip's r2@5→2 stands
		{Rank: 3, LC: 0, Chosen: 2, Order: 4},
		{Rank: 3, LC: 1, Chosen: 0, Alternates: []int{2}, Order: 5},
	}
	gex := grand.ExpandExhaustive(cfg, &RunTrace{Epochs: recs})
	if len(gex.Children) != 1 {
		t.Fatalf("%d grandchildren, want 1", len(gex.Children))
	}
	const wantGrand = "{r0:[1→2] r1:[3→0] r2:[5→2] r3:[0→1 1→2]}"
	if got := gex.Children[0].Decisions.String(); got != wantGrand {
		t.Errorf("grandchild = %s, want %s", got, wantGrand)
	}
}

// TestForceRefusesANode: forcing a prefix node panics and leaves it, and the
// nodes chained below it, as they were; a Clone of it takes the force.
func TestForceRefusesANode(t *testing.T) {
	parent := NewDecisions()
	parent.Force(EpochID{Rank: 0, LC: 1}, 2)
	node := parent.child([]decision{newDecision(1, 3, 0)}, newDecision(2, 5, 1))
	below := node.child(nil, newDecision(3, 0, 1))
	const wantBelow = "{r0:[1→2] r1:[3→0] r2:[5→1] r3:[0→1]}"
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Force on a node did not panic")
			}
		}()
		node.Force(EpochID{Rank: 1, LC: 3}, 2)
	}()
	if !node.isNode() || below.String() != wantBelow {
		t.Errorf("after a refused Force: node flat=%v, below = %s, want %s", !node.isNode(), below, wantBelow)
	}
	c := node.Clone()
	c.Force(EpochID{Rank: 1, LC: 3}, 2)
	if got := c.String(); got != "{r0:[1→2] r1:[3→2] r2:[5→1]}" {
		t.Errorf("forced clone = %s", got)
	}
	if got := below.String(); got != wantBelow {
		t.Errorf("forcing a clone changed the chain below: %s, want %s", got, wantBelow)
	}
}

// TestFlattenedChildrenMatchReference: along real searches — ADLB at p=8,
// k=2 and matmul at p=5, unbounded — every child the one-pass expansion
// builds is a prefix node on its task's set whose flattened prefix equals the
// clone-and-pin reference's (referenceExpand), and every FlipChild a sampler
// could take flattens to the prefix a clone of the task's set, pinned and
// flipped, holds. The tasks are themselves nodes, so chains grow as deep as
// the search goes.
func TestFlattenedChildrenMatchReference(t *testing.T) {
	for _, tc := range []struct {
		name    string
		cfg     ExplorerConfig
		replays int
	}{
		{"adlb-p8-k2", ExplorerConfig{Procs: 8, MixingBound: 2, Program: adlb.Program(adlb.DriverConfig{})}, 300},
		{"matmul-p5-unbounded", ExplorerConfig{Procs: 5, MixingBound: Unbounded, Program: matmul.Program(matmul.Config{})}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := &tc.cfg
			rc := NewRunContext(cfg)
			defer rc.Close()
			stack := []*SubtreeTask{RootTask(cfg)}
			children, flips, deepest := 0, 0, 0
			for n := 0; n < tc.replays && len(stack) > 0; n++ {
				task := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				trace, res, err := rc.Run(task.Decisions)
				if err != nil || res.Deadlock {
					t.Fatalf("replay %d: %v (deadlock %v)", n, err, res.Deadlock)
				}
				got := task.Expand(cfg, trace)
				want := referenceExpand(task, cfg, trace, true)
				if len(got.Children) != len(want.Children) {
					t.Fatalf("replay %d: %d children, reference %d", n, len(got.Children), len(want.Children))
				}
				for i, c := range got.Children {
					parent := task.Decisions
					if parent == nil {
						parent = noDecisions
					}
					if !c.Decisions.isNode() || c.Decisions.parent != parent {
						t.Fatalf("replay %d: child %d is not a node on its task's set", n, i)
					}
					if g, w := flatEntries(c.Decisions), want.Children[i].Decisions.entries; !slices.Equal(g, w) {
						t.Fatalf("replay %d: child %d flattens to %v, reference %v", n, i, g, w)
					}
					depth := 0
					for d := c.Decisions; d.isNode(); d = d.parent {
						depth++
					}
					deepest = max(deepest, depth)
				}
				children += len(got.Children)
				for _, f := range task.FlippableRecords(cfg, trace) {
					for _, alt := range f.Rec.Alternates {
						ref := task.Decisions.Clone()
						for _, rec := range f.Prefix {
							ref.put(newDecision(rec.Rank, rec.LC, rec.Chosen), false)
						}
						ref.Force(f.Rec.ID(), alt)
						if g := flatEntries(task.FlipChild(f, alt).Decisions); !slices.Equal(g, ref.entries) {
							t.Fatalf("replay %d: FlipChild flattens to %v, clone %v", n, g, ref.entries)
						}
						flips++
					}
				}
				stack = append(stack, got.stackOrder()...)
			}
			if children == 0 || flips == 0 || deepest < 2 {
				t.Fatalf("degenerate fixture: %d children, %d flip children, chains %d deep", children, flips, deepest)
			}
		})
	}
}

// frontierEntries counts the distinct decision entries a frontier holds:
// each node's flip, each flat set's entries, and the longest view of each
// pins array, every one counted once however many tasks share it.
func frontierEntries(stack []*SubtreeTask) int {
	seen := map[*Decisions]bool{}
	pins := map[*decision]int{} // a pins array, by its first entry: its longest view
	n := 0
	for _, t := range stack {
		for d := t.Decisions; d != nil && !seen[d]; d = d.parent {
			seen[d] = true
			if !d.isNode() {
				n += len(d.entries)
				continue
			}
			n++ // the flip
			if len(d.entries) > 0 {
				pins[&d.entries[0]] = max(pins[&d.entries[0]], len(d.entries))
			}
		}
	}
	for _, l := range pins {
		n += l
	}
	return n
}

// TestFrontierEntriesGrowLinearlyInChildren pins the peak number of distinct
// decision entries the frontier holds while the serial search runs matmul
// unbounded under a 20-replay cap. The root run at p ranks has about 2p
// wildcard epochs whose alternates give about 1.5p² children. While every
// child held its own copy of a prefix as long as the epochs before its flip,
// the frontier peaked at 290 k, 2.38 M and 19.3 M entries at p = 64, 128 and
// 256 (8× per doubling); sharing the pins, it holds one flip per child and
// one pins array per expansion, about 4× per doubling.
func TestFrontierEntriesGrowLinearlyInChildren(t *testing.T) {
	want := map[int]int{64: 5983, 128: 24255, 256: 97663}
	peak := map[int]int{}
	for _, p := range []int{64, 128, 256} {
		cfg := &ExplorerConfig{Procs: p, MixingBound: Unbounded, MaxInterleavings: 20, Program: matmul.Program(matmul.Config{})}
		rc := NewRunContext(cfg)
		stack := []*SubtreeTask{RootTask(cfg)}
		for n := 0; n < cfg.MaxInterleavings && len(stack) > 0; n++ {
			var err error
			// One replay per call, the last of a final budget only counted,
			// as Explore over the whole cap runs them.
			_, stack, _, err = rc.Explore(stack, 1, n == cfg.MaxInterleavings-1, nil)
			if err != nil {
				t.Fatal(err)
			}
			peak[p] = max(peak[p], frontierEntries(stack))
		}
		t.Logf("matmul p=%d, 20 replays: peak frontier %d decision entries", p, peak[p])
		if peak[p] != want[p] {
			t.Errorf("p=%d: peak frontier %d decision entries, want %d", p, peak[p], want[p])
		}
	}
	for _, p := range []int{64, 128} {
		if r := float64(peak[2*p]) / float64(peak[p]); r > 4.5 {
			t.Errorf("p=%d→%d: the frontier grew %.2f×, want at most 4.5×", p, 2*p, r)
		}
	}
}
