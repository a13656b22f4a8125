package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlooredExitCode pins the floor arithmetic: once the lint pass raises
// the floor, no later success path can lower the process exit code back to 0.
func TestFlooredExitCode(t *testing.T) {
	defer func() { exitFloor = 0 }()

	exitFloor = 0
	if got := floored(0); got != 0 {
		t.Errorf("floored(0) with no floor = %d, want 0", got)
	}
	if got := floored(2); got != 2 {
		t.Errorf("floored(2) with no floor = %d, want 2", got)
	}
	exitFloor = 1
	if got := floored(0); got != 1 {
		t.Errorf("floored(0) with floor 1 = %d, want 1 (lint failure must not be masked)", got)
	}
	if got := floored(2); got != 2 {
		t.Errorf("floored(2) with floor 1 = %d, want 2 (floor must not lower real failures)", got)
	}
}

// TestLintExitBehavior builds the real binary and checks the -lint exit
// contract end to end: error-severity diagnostics yield a nonzero exit even
// when the exploration itself runs and passes, and a clean lint leaves a
// passing exploration at exit 0.
func TestLintExitBehavior(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the dampi binary; skipped in -short mode")
	}
	exe := buildDampi(t)
	// The rleak fixture dir carries seeded, unsuppressed error-severity
	// diagnostics.
	badSrc := filepath.Join("..", "..", "internal", "mpilint", "testdata", "src", "rleak")
	// The fanin workload source lints clean (its one wildtype finding is
	// suppressed in-source).
	goodSrc := filepath.Join("..", "..", "workloads", "fanin")

	cases := []struct {
		name     string
		args     []string
		wantCode int
		wantOut  []string
	}{
		{
			name:     "failing lint, no exploration",
			args:     []string{"-lint", badSrc},
			wantCode: 1,
			wantOut:  []string{"lint:"},
		},
		{
			name:     "failing lint, passing exploration",
			args:     []string{"-lint", badSrc, "-workload", "matmul", "-procs", "2", "-k", "0"},
			wantCode: 1,
			wantOut:  []string{"lint:", "interleavings"},
		},
		{
			name:     "clean lint, passing exploration",
			args:     []string{"-lint", goodSrc, "-workload", "matmul", "-procs", "2", "-k", "0"},
			wantCode: 0,
			wantOut:  []string{"interleavings"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			out, code := runDampi(t, exe, tc.args...)
			if code != tc.wantCode {
				t.Errorf("dampi %v: exit code %d, want %d\noutput:\n%s",
					tc.args, code, tc.wantCode, out)
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out, want) {
					t.Errorf("dampi %v: output missing %q\noutput:\n%s", tc.args, want, out)
				}
			}
		})
	}
}

// TestCheckpointWithoutWorkers: a default (one-slot) run writes -checkpoint,
// and -resume continues from it to the uninterrupted run's summary line.
func TestCheckpointWithoutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the dampi binary; skipped in -short mode")
	}
	exe := buildDampi(t)
	summary := func(args ...string) string {
		args = append([]string{"-workload", "matmul", "-procs", "6", "-k", "0", "-leaks=false"}, args...)
		out, code := runDampi(t, exe, args...)
		if code != 0 {
			t.Fatalf("dampi %v: exit code %d\noutput:\n%s", args, code, out)
		}
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, "DAMPI:") {
				return line
			}
		}
		t.Fatalf("dampi %v printed no DAMPI line:\n%s", args, out)
		return ""
	}
	full := summary()
	ckp := filepath.Join(t.TempDir(), "matmul.ckp.json")
	if got := summary("-max", "10", "-checkpoint", ckp); !strings.Contains(got, "interleavings=10 ") || !strings.Contains(got, "(capped)") {
		t.Errorf("capped run: %q, want 10 interleavings, capped", got)
	}
	if _, err := os.Stat(ckp); err != nil {
		t.Fatalf("-checkpoint without -workers wrote no file: %v", err)
	}
	if got := summary("-checkpoint", ckp, "-resume"); got != full {
		t.Errorf("resumed run: %q\nuninterrupted: %q", got, full)
	}
}

// buildDampi builds the binary under test into a temporary directory.
func buildDampi(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "dampi")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dampi: %v\n%s", err, out)
	}
	return exe
}

// runDampi runs exe and returns its combined output and exit code.
func runDampi(t *testing.T, exe string, args ...string) (string, int) {
	t.Helper()
	out, err := exec.Command(exe, args...).CombinedOutput()
	if ee, ok := err.(*exec.ExitError); ok {
		return string(out), ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running dampi: %v\n%s", err, out)
	}
	return string(out), 0
}
