package mpilint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestGraphCheckFixtures runs the whole-program graph checks over their
// seeded fixtures (kept next to the graph model, under
// internal/commgraph/testdata) and requires the diagnostics to match the
// // want: markers exactly, in both typed and syntactic modes.
func TestGraphCheckFixtures(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("..", "commgraph", "testdata", "src", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no graph fixture directories under ../commgraph/testdata/src")
	}
	names := map[string]bool{}
	for _, dir := range dirs {
		names[filepath.Base(dir)] = true
	}
	for _, check := range []string{"orphan", "tagmismatch", "wildtype", "cycle"} {
		if !names[check] {
			t.Errorf("graph check %q has no seeded fixture directory", check)
		}
	}
	for _, dir := range dirs {
		dir := dir
		t.Run(filepath.Base(dir), func(t *testing.T) {
			want := readExpectations(t, dir)
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want: markers", dir)
			}
			t.Run("typed", func(t *testing.T) {
				diffExpectations(t, want, runFixture(t, dir, Options{}))
			})
			t.Run("syntactic", func(t *testing.T) {
				diffExpectations(t, want, runFixture(t, dir, Options{NoTypeCheck: true}))
			})
		})
	}
}

// TestGraphChecksSilentOnShipped keeps the repo-wide contract the graph
// checks were tuned against: over every shipped example and workload they
// produce no unsuppressed findings (fanin's deliberate wildtype is
// suppressed in-source and must stay that way).
func TestGraphChecksSilentOnShipped(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full examples and workloads trees; skipped in -short mode")
	}
	rep, err := Run(
		[]string{filepath.Join("..", "..", "examples") + "/...", filepath.Join("..", "..", "workloads") + "/..."},
		Options{Checks: []string{"orphan", "tagmismatch", "wildtype", "cycle"}},
	)
	if err != nil {
		t.Fatal(err)
	}
	suppressedWildtype := 0
	for _, d := range rep.Diags {
		if d.Suppressed {
			if d.Check == "wildtype" {
				suppressedWildtype++
			}
			continue
		}
		t.Errorf("unsuppressed graph finding on shipped code: %s", d)
	}
	if suppressedWildtype == 0 {
		t.Error("expected fanin's suppressed wildtype finding; the type-confused wildcard was not detected")
	}
}

// TestProgramSummariesFanin pins the extraction verify.StaticHints depends
// on: the fanin workload yields exactly one complete root.
func TestProgramSummariesFanin(t *testing.T) {
	sums, err := ProgramSummaries([]string{filepath.Join("..", "..", "workloads", "fanin")}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var complete int
	for _, sum := range sums {
		if sum.Complete {
			complete++
		} else {
			t.Logf("incomplete summary %s: %s", sum.Name, strings.Join(sum.Notes, "; "))
		}
	}
	if complete != 1 {
		t.Fatalf("fanin complete summaries = %d, want 1 (of %d total)", complete, len(sums))
	}
}
