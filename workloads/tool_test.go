package workloads

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"dampi/verify"
)

// toolConfigs are the tool configurations the tool golden covers: the default
// Lamport tool, vector clocks, the dual clock, in-band piggybacking and the
// enlarged choice-point space.
var toolConfigs = []struct {
	name string
	cfg  verify.Config
}{
	{"lamport", verify.Config{}},
	{"vector", verify.Config{Clock: verify.VectorClock}},
	{"dual", verify.Config{DualClock: true}},
	{"inband", verify.Config{Transport: verify.Inband}},
	{"choices", verify.Config{ChoicePoints: true}},
}

// toolAt renders what a one-slot verification of every registered workload
// at p ranks reports under each tool configuration: its counts, each error's
// reproducer, and the SHA-256 of its first run's epoch log as JSON.
func toolAt(t *testing.T, procs int) string {
	var b strings.Builder
	for _, w := range All() {
		for _, tc := range toolConfigs {
			cfg := tc.cfg
			cfg.Procs, cfg.MixingBound, cfg.MaxInterleavings = procs, verify.Unbounded, 200
			res, err := verify.Run(cfg, w.Program(Params{Procs: procs}))
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, tc.name, err)
			}
			first, err := json.Marshal(res.FirstTrace)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, tc.name, err)
			}
			fmt.Fprintf(&b, "%s %s interleavings=%d decision_points=%d wildcards=%d capped=%v first_trace=%x\n",
				w.Name, tc.name, res.Interleavings, res.DecisionPoints, res.WildcardsAnalyzed, res.Capped, sha256.Sum256(first))
			for _, e := range res.Errors {
				fmt.Fprintf(&b, "%s %s error %s\n", w.Name, tc.name, e.Decisions)
			}
		}
	}
	return b.String()
}

// TestToolMatchesGolden: the verifier explores every registered workload at
// p=4 under each tool configuration exactly as the tool that recorded
// testdata/tool_p4.golden did — the same counts, reproducers and first-run
// epoch log. The golden was recorded before the tool's decision hooks were
// folded into one epoch lifecycle and is not to be re-recorded.
func TestToolMatchesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tool_p4.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := toolAt(t, 4); got != string(want) {
		t.Errorf("tool results at p=4 differ from the golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
