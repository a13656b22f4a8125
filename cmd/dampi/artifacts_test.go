package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"dampi/verify"
)

// TestSavedArtifactsRoundTrip: -decisions and -trace are the run's only file
// writers. The reproducer an exploration saves replays its first failure
// under -replay, and the trace is JSON with the epoch count the run printed.
func TestSavedArtifactsRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the dampi binary; skipped in -short mode")
	}
	exe := buildDampi(t)
	dir := t.TempDir()
	decFile, traceFile := filepath.Join(dir, "repro.json"), filepath.Join(dir, "trace.json")
	prog := []string{"-workload", "iprobe", "-procs", "3", "-choice-points"}

	out, code := runDampi(t, exe, append(prog, "-decisions", decFile, "-trace", traceFile)...)
	if code != 1 {
		t.Fatalf("exploration: exit code %d, want 1 (an error found)\n%s", code, out)
	}
	found := regexp.MustCompile(`(?m)^  error in interleaving #\d+: (.+)\n    reproducer: (.+)$`).FindStringSubmatch(out)
	saved := regexp.MustCompile(`(?m)^  trace saved to .* \(trace\{epochs=(\d+) `).FindStringSubmatch(out)
	if found == nil || saved == nil {
		t.Fatalf("exploration printed no error with a reproducer, or no trace line:\n%s", out)
	}

	out, code = runDampi(t, exe, append(prog, "-replay", decFile)...)
	if code != 1 {
		t.Fatalf("replay: exit code %d, want 1\n%s", code, out)
	}
	replayed := regexp.MustCompile(`(?m)^replay: .* decisions=(.+)\n  error: (.+)$`).FindStringSubmatch(out)
	if replayed == nil {
		t.Fatalf("replay printed no failure:\n%s", out)
	}
	if replayed[2] != found[1] || replayed[1] != found[2] {
		t.Errorf("replay fails with %q under %s; the exploration found %q under %s", replayed[2], replayed[1], found[1], found[2])
	}

	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var trace verify.RunTrace
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if n, _ := strconv.Atoi(saved[1]); len(trace.Epochs) != n || n == 0 {
		t.Errorf("trace file holds %d epochs, the run printed epochs=%s", len(trace.Epochs), saved[1])
	}
}
