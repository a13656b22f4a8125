package mpilint_test

import (
	"path/filepath"
	"testing"

	"dampi/internal/mpilint"
	"dampi/internal/mpilint/testprogs"
	"dampi/mpi"
)

// TestStaticDynamicCrossCheck runs the same programs through both verifiers:
// mpilint's flow-insensitive rleak/cleak checks over the testprogs sources,
// and the runtime's own leak facts over an actual execution. For these programs
// the two must agree exactly — a static R-leak/C-leak finding in a file iff
// the dynamic run of that file's program leaks a request/communicator.
func TestStaticDynamicCrossCheck(t *testing.T) {
	rep, err := mpilint.Run(
		[]string{filepath.Join("testprogs")},
		mpilint.Options{Checks: []string{"rleak", "cleak"}, DisableSuppressions: true},
	)
	if err != nil {
		t.Fatalf("static analysis of testprogs: %v", err)
	}
	staticLeaks := make(map[string]map[string]bool) // file base -> check -> found
	for _, d := range rep.Diags {
		base := filepath.Base(d.File)
		if staticLeaks[base] == nil {
			staticLeaks[base] = make(map[string]bool)
		}
		staticLeaks[base][d.Check] = true
	}

	cases := []struct {
		file      string
		prog      func(*mpi.Proc) error
		wantRleak bool
		wantCleak bool
	}{
		{"leak_request.go", testprogs.LeakRequest, true, false},
		{"leak_comm.go", testprogs.LeakComm, false, true},
		{"clean.go", testprogs.Clean, false, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.file, func(t *testing.T) {
			w := mpi.NewWorld(mpi.Config{Procs: 2})
			if err := w.Run(tc.prog); err != nil {
				t.Fatalf("dynamic run: %v", err)
			}

			// Sanity-pin the expected verdicts, then require both sides to
			// match them — so a failure says which verifier regressed.
			if rleaks := w.RequestLeaks(); (len(rleaks) > 0) != tc.wantRleak {
				t.Errorf("dynamic R-leak = %v, want %v (report: %v)", len(rleaks) > 0, tc.wantRleak, rleaks)
			}
			if cleaks := w.CommLeaks(); (len(cleaks) > 0) != tc.wantCleak {
				t.Errorf("dynamic C-leak = %v, want %v (report: %v)", len(cleaks) > 0, tc.wantCleak, cleaks)
			}
			if got := staticLeaks[tc.file]["rleak"]; got != tc.wantRleak {
				t.Errorf("static rleak finding = %v, want %v", got, tc.wantRleak)
			}
			if got := staticLeaks[tc.file]["cleak"]; got != tc.wantCleak {
				t.Errorf("static cleak finding = %v, want %v", got, tc.wantCleak)
			}
		})
	}
}

// TestTestprogsSuppressedByDefault keeps the repo-wide lint contract: with
// suppressions honored (the CI configuration), the intentional violations in
// testprogs must not fail the run.
func TestTestprogsSuppressedByDefault(t *testing.T) {
	rep, err := mpilint.Run([]string{filepath.Join("testprogs")}, mpilint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep.Failing()); n != 0 {
		t.Errorf("testprogs has %d failing diagnostics with suppressions on, want 0; first: %s",
			n, rep.Failing()[0].String())
	}
	suppressed := 0
	for _, d := range rep.Diags {
		if d.Suppressed {
			suppressed++
		}
	}
	if suppressed != 2 {
		t.Errorf("testprogs suppressed diagnostics = %d, want 2 (rleak + cleak)", suppressed)
	}
}
