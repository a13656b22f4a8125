package core_test

import (
	"fmt"
	"reflect"
	"testing"

	"dampi/internal/core"
	"dampi/internal/dexplore"
)

// walk is what one exploration of a golden tree did, in order.
type walk struct {
	Runs     []string // forced prefix of each replay the Runner served
	Observed []string // "#Index reproducer" per OnInterleaving call
	Errors   []string // "#Index reproducer" in report order

	Interleavings, DecisionPoints, AutoAbstracted, Deadlocks int
	Capped                                                   bool
}

// engines are the explorers a golden tree is walked by: the reference, and
// the one-slot engine verify.Run runs for Workers 0 and 1.
var engines = []struct {
	name    string
	explore func(core.ExplorerConfig) (*core.Report, error)
}{
	{"core.Explorer", func(cfg core.ExplorerConfig) (*core.Report, error) { return core.NewExplorer(cfg).Explore() }},
	{"Workers 0", func(cfg core.ExplorerConfig) (*core.Report, error) {
		return dexplore.New(dexplore.Config{Explorer: cfg}).Explore()
	}},
	{"Workers 1", func(cfg core.ExplorerConfig) (*core.Report, error) {
		return dexplore.New(dexplore.Config{Explorer: cfg, Workers: 1}).Explore()
	}},
}

// walkWith explores cfg (a GoldenConfig logging into runs) with explore.
func walkWith(t *testing.T, cfg core.ExplorerConfig, runs *[]string, explore func(core.ExplorerConfig) (*core.Report, error)) walk {
	t.Helper()
	var w walk
	cfg.OnInterleaving = func(res *core.InterleavingResult) {
		w.Observed = append(w.Observed, fmt.Sprintf("#%d %v", res.Index, res.Decisions))
	}
	rep, err := explore(cfg)
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	w.Runs = *runs
	for _, e := range rep.Errors {
		w.Errors = append(w.Errors, fmt.Sprintf("#%d %v", e.Index, e.Decisions))
	}
	w.Interleavings, w.DecisionPoints, w.AutoAbstracted = rep.Interleavings, rep.DecisionPoints, rep.AutoAbstracted
	w.Deadlocks, w.Capped = rep.Deadlocks, rep.Capped
	return w
}

// TestOneSlotIsTheSerialExplorer: a one-slot dexplore.Engine walks every
// dfs_golden.json tree exactly as core.Explorer does — the same replays in
// the same order, the same Index sequence, errors in discovery order, the
// same DecisionPoints and Capped. Each tree is walked as recorded, with
// StopOnFirstError, and under every cap from one replay to one past the
// tree: the cap then falls at every point of a lease, the root's own.
func TestOneSlotIsTheSerialExplorer(t *testing.T) {
	for _, c := range core.GoldenCases() {
		for _, stop := range []bool{c.StopOnFirstError, true} {
			c.StopOnFirstError = stop
			var runs []string
			size := walkWith(t, core.GoldenConfig(&c, &runs), &runs, engines[0].explore).Interleavings
			for _, max := range append([]int{c.Max}, seq(1, size+1)...) {
				c.Max = max
				t.Run(fmt.Sprintf("%s/stop=%v/max=%d", c.Name, stop, max), func(t *testing.T) {
					var want walk
					for i, eng := range engines {
						var runs []string
						got := walkWith(t, core.GoldenConfig(&c, &runs), &runs, eng.explore)
						if i == 0 {
							want = got
						} else if !reflect.DeepEqual(got, want) {
							t.Errorf("%s walked\n  %+v\n%s walked\n  %+v", eng.name, got, engines[0].name, want)
						}
					}
				})
			}
		}
	}
}

// seq is lo..hi.
func seq(lo, hi int) []int {
	var s []int
	for n := lo; n <= hi; n++ {
		s = append(s, n)
	}
	return s
}
