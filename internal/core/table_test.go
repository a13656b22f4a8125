package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"dampi/workloads/matmul"
)

// frontierOf explores matmul p=5 for a capped number of replays and returns
// what is left: prefix nodes two and more levels deep, sharing parents and
// pins arrays.
func frontierOf(t *testing.T, replays int) []*SubtreeTask {
	t.Helper()
	cfg := &ExplorerConfig{Procs: 5, MixingBound: Unbounded, Program: matmul.Program(matmul.Config{})}
	rc := NewRunContext(cfg)
	defer rc.Close()
	_, left, _, err := rc.Explore([]*SubtreeTask{RootTask(cfg)}, replays, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	return left
}

// sameTasks fails unless got holds, task for task, the sets and fields of
// want.
func sameTasks(t *testing.T, got, want []*SubtreeTask) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d tasks read back, %d written", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.Decisions.String() != w.Decisions.String() || (g.Decisions == nil) != (w.Decisions == nil) ||
			g.Budget != w.Budget || g.Explorable != w.Explorable || g.Depth != w.Depth || !reflect.DeepEqual(g.Sample, w.Sample) {
			t.Errorf("task %d: read back %+v %s, wrote %+v %s", i, g, g.Decisions, w, w.Decisions)
		}
	}
}

// readTable decodes a table through encoding/json, as a checkpoint or a
// frame does.
func readTable(t *testing.T, b []byte) *TaskTable {
	t.Helper()
	var tt TaskTable
	if err := json.Unmarshal(b, &tt); err != nil {
		t.Fatalf("%v\n%s", err, b)
	}
	return &tt
}

// TestTableRoundTrip: a frontier the search built — the root task, flat
// sets, prefix nodes, a sampled walk step — reads back as the same tasks, and
// its table writes each pins array and each shared node once: the tasks' own
// nodes and their common ancestors, not a row per task per level.
func TestTableRoundTrip(t *testing.T) {
	tasks := frontierOf(t, 40)
	if len(tasks) < 10 {
		t.Fatalf("degenerate fixture: %d tasks", len(tasks))
	}
	flat := NewDecisions()
	flat.Force(EpochID{Rank: 2, LC: 9}, 1)
	flat.Force(EpochID{Rank: 0, LC: 3}, 4)
	walk := tasks[0].FlipChild(Flippable{Rec: &EpochRecord{Rank: 1, LC: 7}}, 3)
	walk.Sample = &SampleState{Walk: 2, Step: 5, Rng: 1 << 63, Prio: []int{3, 1, 2}, NextChange: 9}
	tasks = append(tasks, &SubtreeTask{Budget: Unbounded, Explorable: true}, &SubtreeTask{Decisions: flat, Budget: 2, Depth: 1}, walk)

	var w TableWriter
	b := w.Append(nil, tasks, nil)
	got := readTable(t, b)
	sameTasks(t, got.Tasks, tasks)
	if got.Roots() != 0 {
		t.Errorf("a list without roots reads as hanging from %d roots", got.Roots())
	}

	var raw struct{ Pins, Nodes [][]json.Number }
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	seen := map[*Decisions]bool{}
	arrays := map[*decision]bool{}
	for _, task := range tasks {
		for d := task.Decisions; d != nil && d != noDecisions; d = d.parent {
			seen[d] = true
			if len(d.entries) > 0 {
				arrays[&d.entries[0]] = true
			}
		}
	}
	if len(raw.Nodes) != len(seen) || len(raw.Pins) != len(arrays) {
		t.Errorf("%d rows and %d pins arrays written for %d distinct sets and %d arrays", len(raw.Nodes), len(raw.Pins), len(seen), len(arrays))
	}

	// A warm writer writes the same bytes again, and no row of the last list.
	if again := w.Append(nil, tasks, nil); string(again) != string(b) {
		t.Errorf("a warm writer wrote\n%s\nthe first time\n%s", again, b)
	}
	if b := w.Append(nil, nil, nil); string(b) != `{"pins":[],"nodes":[],"tasks":[]}` {
		t.Errorf("the empty list is %s", b)
	}
}

// TestTableRefusesAFlatList: a table reader reads tables only. The flat list
// of a version-1 checkpoint — a JSON array of tasks, each with its whole set —
// is the checkpoint reader's to read, and a table reader refuses it; null is
// the empty list.
func TestTableRefusesAFlatList(t *testing.T) {
	var tt TaskTable
	err := json.Unmarshal([]byte(`[{"decisions":{"by_rank":{"0":{"1":2}}},"budget":-1,"explorable":true,"depth":1}]`), &tt)
	if err == nil || !strings.Contains(err.Error(), "want '{'") {
		t.Errorf("a flat list read with error %v, want one asking for a table", err)
	}
	if got := readTable(t, []byte(`null`)); len(got.Tasks) != 0 {
		t.Errorf("null read as %d tasks", len(got.Tasks))
	}
}

// TestTableRelinksLeftoversToTheirRoots: a lease result writes its leftovers
// hanging from the lease's roots, none of whose sets it repeats; the reader
// names each leftover's root, and Relink hangs the rows from the objects the
// reader holds for those roots, sharing their sets, so the leftovers read as
// the sets the worker had.
func TestTableRelinksLeftoversToTheirRoots(t *testing.T) {
	roots := frontierOf(t, 40)[:3]
	roots = append(roots, &SubtreeTask{Budget: Unbounded, Explorable: true}) // the root task
	var left []*SubtreeTask
	for i, r := range roots {
		left = append(left, r.FlipChild(Flippable{Rec: &EpochRecord{Rank: 4, LC: uint64(90 + i)}}, 1))
	}
	var w TableWriter
	b := w.Append(nil, left, roots)
	if !strings.HasPrefix(string(b), `{"roots":4,"pins":[],"nodes":[[0,-1,0,4,90,1],[1,-1,0,4,91,1],[2,-1,0,4,92,1],[3,-1,0,4,93,1]]`) {
		t.Errorf("leftovers of four roots written as %s", b)
	}
	got := readTable(t, b)
	if got.Roots() != 4 {
		t.Fatalf("read %d roots, want 4", got.Roots())
	}
	if _, err := got.Relink(roots[:3]); err == nil {
		t.Error("relinked to 3 roots a table that hangs from 4")
	}
	held := make([]*SubtreeTask, len(roots)) // the reader's own copies of the roots
	for i, r := range roots {
		cp := *r
		held[i] = &cp
	}
	hang, err := got.Relink(held)
	if err != nil {
		t.Fatal(err)
	}
	for i := range left {
		if hang[i] != i {
			t.Errorf("leftover %d hangs from root %d, want %d", i, hang[i], i)
		}
	}
	sameTasks(t, got.Tasks, left)
	for i, task := range got.Tasks {
		want := held[i].Decisions
		if want == nil {
			want = noDecisions
		}
		if task.Decisions.parent != want {
			t.Errorf("leftover %d hangs from %p, not its root's set %p", i, task.Decisions.parent, want)
		}
	}
}

// TestTableRefusesWhatIsNoForest: a table is outside input. Each way its rows
// can fail to be a forest of sets the writer could have written is refused,
// naming the problem, and never panics.
func TestTableRefusesWhatIsNoForest(t *testing.T) {
	for _, tc := range []struct{ name, body, want string }{
		{"cycle", `{"pins":[],"nodes":[[0,-1,0,0,1,1]],"tasks":[[0,-1,1,1]]}`, "parent 0 is not an earlier row"},
		{"forward-parent", `{"pins":[],"nodes":[[1,-1,0,0,1,1],[-1,-1,0,0,2,1]],"tasks":[[0,-1,1,1]]}`, "parent 1 is not an earlier row"},
		{"parent-below-minus-one", `{"pins":[],"nodes":[[-2,-1,0,0,1,1]],"tasks":[]}`, "parent -2"},
		{"root-as-parent-without-roots", `{"roots":1,"pins":[],"nodes":[[1,-1,0,0,1,1]],"tasks":[]}`, "parent 1 is not an earlier row"},
		{"array-out-of-range", `{"pins":[[0,1,1]],"nodes":[[-1,1,1,0,2,1]],"tasks":[]}`, "no pins array 1"},
		{"negative-array", `{"pins":[[0,1,1]],"nodes":[[-1,-2,1,0,2,1]],"tasks":[]}`, "no pins array -2"},
		{"view-too-long", `{"pins":[[0,1,1]],"nodes":[[-1,0,2,0,2,1]],"tasks":[]}`, "a view of 2 entries of pins array 0, which has 1"},
		{"negative-view", `{"pins":[[0,1,1]],"nodes":[[-1,0,-1,0,2,1]],"tasks":[]}`, "a view of -1 entries"},
		{"pins-not-entries", `{"pins":[[0,1]],"nodes":[],"tasks":[]}`, "not entries of three"},
		{"unsorted-flat-set", `{"pins":[[1,1,1,0,1,1]],"nodes":[[-1,0,2]],"tasks":[[0,-1,1,1]]}`, "not sorted"},
		{"flat-set-twice", `{"pins":[[0,1,1,0,1,2]],"nodes":[[-1,0,2]],"tasks":[[0,-1,1,1]]}`, "twice"},
		{"flat-set-with-parent", `{"pins":[[0,1,1]],"nodes":[[-1,-1,0,0,5,1],[0,0,1]],"tasks":[]}`, "a flat set with a parent"},
		{"task-names-no-row", `{"pins":[],"nodes":[],"tasks":[[0,-1,1,1]]}`, "no row 0"},
		{"task-is-a-root", `{"roots":2,"pins":[],"nodes":[],"tasks":[[1,-1,1,1]]}`, "is lease root 1 itself"},
		{"row-below-no-root", `{"roots":1,"pins":[],"nodes":[[-1,-1,0,0,1,1]],"tasks":[]}`, "row 1 hangs from no lease root"},
		{"flat-row-with-roots", `{"roots":1,"pins":[[0,1,1]],"nodes":[[-1,0,1]],"tasks":[]}`, "row 1 hangs from no lease root"},
		{"flat-row-below-a-root", `{"roots":1,"pins":[[0,1,1]],"nodes":[[0,0,1]],"tasks":[]}`, "row 1 hangs from no lease root"},
		{"task-below-no-root", `{"roots":1,"pins":[],"nodes":[],"tasks":[[-1,-1,1,0]]}`, "task 0 hangs from no lease root"},
		{"rank-too-wide", `{"pins":[[4294967296,1,1]],"nodes":[],"tasks":[]}`, "out of range"},
		{"fractional", `{"pins":[],"nodes":[[-1,-1,0,0,1,1.5]],"tasks":[]}`, "want ','"},
		{"short-row", `{"pins":[],"nodes":[[-1,-1,0,0]],"tasks":[]}`, "a node row of 4 numbers"},
		{"short-task", `{"pins":[],"nodes":[],"tasks":[[-1,-1,1,0,2]]}`, "a task row of 5 numbers"},
		{"explorable-two", `{"pins":[],"nodes":[],"tasks":[[-1,-1,2,0]]}`, "explorable 2"},
		{"member-twice", `{"pins":[],"pins":[],"nodes":[],"tasks":[]}`, `want one each`},
		{"unknown-member", `{"pins":[],"nodes":[],"tasks":[],"keys":[]}`, `want one each`},
		{"roots-negative", `{"roots":-1,"pins":[],"nodes":[],"tasks":[]}`, "want a count of roots"},
		{"roots-too-many", `{"roots":2147483648,"pins":[],"nodes":[],"tasks":[]}`, "want a count of roots"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var tt TaskTable
			err := json.Unmarshal([]byte(tc.body), &tt)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s read with error %v, want one naming %q", tc.body, err, tc.want)
			}
		})
	}
}

// TestTableInRangeReadsEachRow: a table's InRange refuses what InRange
// refuses on any task's flattened set — a rank or a source out of the world
// — reading each row once, and so also a pin that an inherited decision
// hides, which no writer makes.
func TestTableInRangeReadsEachRow(t *testing.T) {
	tasks := frontierOf(t, 40)
	var w TableWriter
	if err := readTable(t, w.Append(nil, tasks, nil)).InRange(5, false); err != nil {
		t.Fatalf("the search's own frontier refused: %v", err)
	}
	if err := (&TaskTable{Tasks: tasks}).InRange(4, false); err == nil {
		t.Fatal("a frontier of a 5-rank world passes as one of 4 ranks")
	}
	for _, tc := range []struct{ name, body, want string }{
		{"rank-past-the-world", `{"pins":[[0,1,1,5,2,1]],"nodes":[[-1,0,2,0,3,1]],"tasks":[[0,-1,1,1]]}`, "r5@2→1 is out of range for 5 ranks"},
		{"source-past-the-world", `{"pins":[],"nodes":[[-1,-1,0,0,3,7]],"tasks":[[0,-1,1,1]]}`, "r0@3→7 is out of range"},
		{"negative-rank-in-flat-set", `{"pins":[[-1,0,0]],"nodes":[[-1,0,1]],"tasks":[[0,-1,1,1]]}`, "r-1@0→0 is out of range"},
		{"hidden-pin", `{"pins":[[0,3,9]],"nodes":[[-1,-1,0,0,3,1],[0,0,1,1,4,1]],"tasks":[[1,-1,1,1]]}`, "r0@3→9 is out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := readTable(t, []byte(tc.body))
			err := got.InRange(5, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
