package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"dampi/mpi"
)

// testdata/dfs_golden.json was recorded from the frame-stack explorer this
// package used to carry (frame/forced/nextFlip/pushNew/buildDecisions), at
// the last commit that had it: for each case below, the ordered sequence of
// forced-decision prefixes it replayed plus the report counts. The explorer
// that replaced it must walk the same tree in the same order. The cases are
// synthetic traces served through the ExplorerConfig.Runner seam — a pure
// function of the decisions — so the data pins the schedule generator alone,
// free of the runtime's arrival-order non-determinism.

// goldenCond is "the epoch (Rank, LC) matched Chosen in this run".
type goldenCond struct {
	Rank   int
	LC     uint64
	Chosen int
}

// goldenEpoch is one epoch of a synthetic program.
type goldenEpoch struct {
	Rank int
	LC   uint64
	Tag  int
	Kind EpochKind
	// Senders[0] is the self-run match; a forced run matches the forced
	// sender. The alternates are the remaining senders, in order.
	Senders []int
	InLoop  bool
	// Unmatched makes the epoch a never-completed receive (Chosen = -1).
	Unmatched bool
	// When, if set, makes the epoch appear only in runs where an earlier
	// epoch matched a given sender (control flow depending on received data).
	When *goldenCond
}

type goldenCase struct {
	Name             string
	Epochs           []goldenEpoch
	K                int
	AutoLoop         int
	Max              int
	StopOnFirstError bool
	// DeadlockWhen / ErrorWhen make runs satisfying the condition fail.
	DeadlockWhen *goldenCond
	ErrorWhen    *goldenCond
}

// goldenRecord is what one exploration of a case produced.
type goldenRecord struct {
	Name           string   `json:"name"`
	Runs           []string `json:"runs"` // forced prefix of each replay, in order
	Interleavings  int      `json:"interleavings"`
	DecisionPoints int      `json:"decision_points"`
	AutoAbstracted int      `json:"auto_abstracted"`
	Capped         bool     `json:"capped"`
	Deadlocks      int      `json:"deadlocks"`
	// Errors lists "#<Index> <reproducer>" in report order.
	Errors []string `json:"errors"`
}

// grid is two ranks, two wildcard epochs each, interleaved in commit order:
// rank 0 chooses among three senders, rank 1 among two.
var goldenGrid = []goldenEpoch{
	{Rank: 0, LC: 1, Senders: []int{1, 2, 3}},
	{Rank: 1, LC: 1, Senders: []int{0, 2}},
	{Rank: 0, LC: 2, Senders: []int{2, 1, 3}},
	{Rank: 1, LC: 2, Senders: []int{2, 0}},
}

// repeated is six same-signature epochs on rank 0 (an undeclared loop) and
// one differently tagged epoch after them.
var goldenRepeated = []goldenEpoch{
	{Rank: 0, LC: 1, Tag: 5, Senders: []int{1, 2}},
	{Rank: 0, LC: 2, Tag: 5, Senders: []int{1, 2}},
	{Rank: 0, LC: 3, Tag: 5, Senders: []int{2, 1}},
	{Rank: 0, LC: 4, Tag: 5, Senders: []int{1, 2}},
	{Rank: 0, LC: 5, Tag: 5, Senders: []int{1, 2}},
	{Rank: 0, LC: 6, Tag: 5, Senders: []int{2, 1}},
	{Rank: 0, LC: 7, Tag: 6, Senders: []int{1, 2}},
}

var goldenCases = []goldenCase{
	{Name: "grid-k0", Epochs: goldenGrid, K: 0},
	{Name: "grid-k1", Epochs: goldenGrid, K: 1},
	{Name: "grid-k2", Epochs: goldenGrid, K: 2},
	{Name: "grid-unbounded", Epochs: goldenGrid, K: Unbounded},
	{
		Name: "unmatched-and-inloop", K: Unbounded,
		Epochs: []goldenEpoch{
			{Rank: 0, LC: 1, Senders: []int{1, 2}},
			{Rank: 2, LC: 1, Senders: []int{0, 1}, Unmatched: true},
			{Rank: 1, LC: 1, Senders: []int{0, 2, 3}, InLoop: true},
			{Rank: 1, LC: 2, Senders: []int{0, 2, 3}, InLoop: true},
			{Rank: 0, LC: 2, Kind: ProbeEpoch, Senders: []int{2, 1}},
			{Rank: 1, LC: 3, Senders: []int{3, 0}},
		},
	},
	{Name: "autoloop-off", Epochs: goldenRepeated, K: 1},
	{Name: "autoloop-2-k0", Epochs: goldenRepeated, K: 0, AutoLoop: 2},
	{Name: "autoloop-2-unbounded", Epochs: goldenRepeated, K: Unbounded, AutoLoop: 2},
	{
		// A deadlocked run expands nothing: its later epochs stay unflipped.
		Name: "deadlock", Epochs: goldenGrid, K: Unbounded,
		DeadlockWhen: &goldenCond{Rank: 1, LC: 1, Chosen: 2},
	},
	{
		Name: "data-dependent", K: Unbounded,
		Epochs: []goldenEpoch{
			{Rank: 0, LC: 1, Senders: []int{1, 2, 3}},
			{Rank: 1, LC: 1, Senders: []int{0, 3}, When: &goldenCond{Rank: 0, LC: 1, Chosen: 2}},
			{Rank: 0, LC: 2, Senders: []int{3, 1}, When: &goldenCond{Rank: 1, LC: 1, Chosen: 3}},
			{Rank: 2, LC: 1, Senders: []int{1, 0}},
		},
		ErrorWhen: &goldenCond{Rank: 0, LC: 2, Chosen: 1},
	},
	{Name: "cap-mid-tree", Epochs: goldenGrid, K: Unbounded, Max: 11},
	{Name: "cap-at-last-leaf", Epochs: goldenGrid, K: 0, Max: 7},
	{Name: "cap-one", Epochs: goldenGrid, K: Unbounded, Max: 1},
	{
		Name: "errors-in-discovery-order", Epochs: goldenGrid, K: Unbounded,
		ErrorWhen: &goldenCond{Rank: 0, LC: 2, Chosen: 3},
	},
	{
		Name: "stop-on-first-error", Epochs: goldenGrid, K: Unbounded, StopOnFirstError: true,
		ErrorWhen: &goldenCond{Rank: 0, LC: 2, Chosen: 3},
	},
	{
		Name: "stop-on-erroring-self-run", Epochs: goldenGrid, K: Unbounded, StopOnFirstError: true,
		ErrorWhen: &goldenCond{Rank: 0, LC: 1, Chosen: 1},
	},
}

// goldenRunner serves c's synthetic trace for the given decisions and logs
// the forced prefix it was asked to replay.
func goldenRunner(c *goldenCase, runs *[]string) func(*ExplorerConfig, *Decisions) (*RunTrace, *InterleavingResult, error) {
	return func(_ *ExplorerConfig, d *Decisions) (*RunTrace, *InterleavingResult, error) {
		*runs = append(*runs, d.String())
		tr := &RunTrace{}
		res := &InterleavingResult{Decisions: d.Clone()}
		matched := make(map[EpochID]int)
		holds := func(w *goldenCond) bool {
			if w == nil {
				return false
			}
			got, ok := matched[EpochID{Rank: w.Rank, LC: w.LC}]
			return ok && got == w.Chosen
		}
		for _, e := range c.Epochs {
			if e.When != nil && !holds(e.When) {
				continue
			}
			rec := &EpochRecord{
				Rank: e.Rank, LC: e.LC, Tag: e.Tag, Kind: e.Kind,
				Chosen: -1, InLoop: e.InLoop, Order: uint64(len(tr.Epochs)),
			}
			if !e.Unmatched {
				rec.Chosen = e.Senders[0]
				if forced, ok := d.Lookup(e.Rank, e.LC); ok {
					rec.Chosen, rec.Guided = forced, true
				}
				for _, s := range e.Senders {
					if s != rec.Chosen {
						rec.Alternates = append(rec.Alternates, s)
					}
				}
				matched[rec.ID()] = rec.Chosen
				if !rec.Guided {
					res.Decisions.Force(rec.ID(), rec.Chosen)
				}
			}
			tr.Epochs = append(tr.Epochs, rec)
			if rec.LC > tr.MaxLC {
				tr.MaxLC = rec.LC
			}
		}
		res.Epochs = len(tr.Epochs)
		switch {
		case holds(c.DeadlockWhen):
			res.Err, res.Deadlock = errors.New("synthetic deadlock"), true
		case holds(c.ErrorWhen):
			res.Err = errors.New("synthetic error")
		}
		return tr, res, nil
	}
}

// goldenConfig is the exploration a case describes, served by goldenRunner.
func goldenConfig(c *goldenCase, runs *[]string) ExplorerConfig {
	return ExplorerConfig{
		Procs:             4,
		Program:           func(*mpi.Proc) error { return nil }, // never run: Runner replaces every execution
		MixingBound:       c.K,
		AutoLoopThreshold: c.AutoLoop,
		MaxInterleavings:  c.Max,
		StopOnFirstError:  c.StopOnFirstError,
		Runner:            goldenRunner(c, runs),
	}
}

// exploreGolden runs one case through NewExplorer(...).Explore().
func exploreGolden(t *testing.T, c goldenCase) goldenRecord {
	t.Helper()
	got := goldenRecord{Name: c.Name, Errors: []string{}}
	rep, err := NewExplorer(goldenConfig(&c, &got.Runs)).Explore()
	if err != nil {
		t.Fatalf("%s: Explore: %v", c.Name, err)
	}
	got.Interleavings = rep.Interleavings
	got.DecisionPoints = rep.DecisionPoints
	got.AutoAbstracted = rep.AutoAbstracted
	got.Capped = rep.Capped
	got.Deadlocks = rep.Deadlocks
	for _, e := range rep.Errors {
		got.Errors = append(got.Errors, fmt.Sprintf("#%d %v", e.Index, e.Decisions))
	}
	return got
}

func TestExplorerReproducesFrameStackGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/dfs_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(goldenCases) {
		t.Fatalf("golden file has %d cases, table has %d", len(want), len(goldenCases))
	}
	for i, c := range goldenCases {
		c, w := c, want[i]
		t.Run(c.Name, func(t *testing.T) {
			got := exploreGolden(t, c)
			if reflect.DeepEqual(got, w) {
				return
			}
			for j := 0; j < len(got.Runs) && j < len(w.Runs); j++ {
				if got.Runs[j] != w.Runs[j] {
					t.Errorf("replay %d forced %s, frame stack forced %s", j, got.Runs[j], w.Runs[j])
					break
				}
			}
			got.Runs, w.Runs = nil, nil
			t.Errorf("got  %+v\nwant %+v", got, w)
		})
	}
}

// TestReportMergeIsOrderInsensitive: however an engine splits an exploration
// among workers and in whatever order it merges their partial reports, the
// sealed result is the report one worker would have produced. Each golden
// case's tree is walked once, every completed task accounted both in one
// whole report and in one of three partial ones (odd-numbered tasks posing
// as sampler walk steps, so the distinct-schedule sets merge too).
func TestReportMergeIsOrderInsensitive(t *testing.T) {
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, c := range goldenCases {
		c := c
		var runs []string
		ecfg := goldenConfig(&c, &runs) // the loop below walks the whole tree: no cap, no early stop
		cfg := &ecfg
		rc := NewRunContext(cfg)
		defer rc.Close()
		whole, parts := &Report{}, [3]*Report{{}, {}, {}}
		stack := []*SubtreeTask{RootTask(cfg)}
		for n := 0; len(stack) > 0; n++ {
			task := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			trace, res, err := rc.Run(task.Decisions)
			if err != nil {
				t.Fatal(err)
			}
			res.Index = n
			var ex *Expansion
			if !res.Deadlock {
				ex = task.Expand(cfg, trace)
				stack = append(stack, ex.Children...)
			}
			var root *RunTrace
			if task.Decisions == nil {
				root = trace
			}
			whole.Add(res, ex, root, n%2 == 1)
			parts[n%3].Add(res, ex, root, n%2 == 1)
		}
		whole.Seal(cfg, false)
		whole.SortErrors()
		for _, perm := range perms {
			merged := &Report{}
			for _, i := range perm {
				merged.Merge(parts[i])
			}
			merged.Seal(cfg, false)
			merged.SortErrors()
			if !reflect.DeepEqual(merged, whole) {
				t.Errorf("%s: merge order %v sealed to\n     %+v\nwant %+v", c.Name, perm, merged, whole)
			}
		}
	}
}
