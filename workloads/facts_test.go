package workloads

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dampi/internal/core"
	"dampi/internal/trace"
	"dampi/mpi"
	"dampi/verify"
)

// factsAt renders what one verification reports of every registered
// workload's own MPI use at p ranks: its C-leak and R-leak lines as dampi
// prints them, then its Table I totals.
func factsAt(t *testing.T, procs int) string {
	var b strings.Builder
	for _, w := range All() {
		res, err := verify.Run(verify.Config{Procs: procs, MaxInterleavings: 1, CheckLeaks: true, CollectStats: true},
			w.Program(Params{Procs: procs}))
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, l := range res.Leaks.CommLeaks {
			fmt.Fprintf(&b, "%s C-leak: %s\n", w.Name, l)
		}
		for _, l := range res.Leaks.RequestLeaks {
			fmt.Fprintf(&b, "%s R-leak: %s\n", w.Name, l)
		}
		fmt.Fprintf(&b, "%s %v\n", w.Name, res.Stats.Totals())
	}
	return b.String()
}

// TestLeaksAndOpsMatchGolden: the runtime reports every registered workload's
// leaks and operation counts at p=4 byte for byte as the tool layers that
// collected them before did. testdata/facts_p4.golden was recorded with those
// layers (a leak tracker and a statistics layer stacked below the verifier on
// the first run) and is not to be re-recorded.
func TestLeaksAndOpsMatchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/facts_p4.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := factsAt(t, 4); got != string(want) {
		t.Errorf("workload facts at p=4 differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestStatsCountOnlyTheProgram: the Table I totals of an instrumented run,
// under either piggyback transport, are a native world's — the tool's own
// traffic is invisible to them.
func TestStatsCountOnlyTheProgram(t *testing.T) {
	const procs = 4
	for _, w := range All() {
		program := w.Program(Params{Procs: procs})
		world := mpi.NewWorld(mpi.Config{Procs: procs})
		if err := world.Run(program); err != nil {
			t.Fatalf("%s natively: %v", w.Name, err)
		}
		native := trace.NewStats(procs, world.Ops()).Totals()
		for _, transport := range []core.Transport{core.Separate, core.Inband} {
			res, err := verify.Run(verify.Config{Procs: procs, Transport: transport, MaxInterleavings: 1, CollectStats: true}, program)
			if err != nil {
				t.Fatalf("%s/%v: %v", w.Name, transport, err)
			}
			if got := res.Stats.Totals(); got != native {
				t.Errorf("%s/%v: instrumented %v, natively %v", w.Name, transport, got, native)
			}
		}
	}
}
