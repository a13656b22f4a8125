package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"dampi/verify"
)

// finishReport closes a printed report, local or distributed (its head and
// its errors are core.Report's renderer, which the job queue's text reports
// use too, so all three print identical reports): the sample dump (with
// -sample-dump), the throughput footer, and the exit status the verdict calls
// for. The dump is the distinct sampled decision vectors, one per line
// — the reproducibility artifact ci/sample_smoke.sh diffs across runs. The
// vectors arrive sorted from the engine, so two runs with the same seed
// produce byte-identical dumps.
func finishReport(res *verify.Result, sampleDump, footer string) {
	if sampleDump != "" {
		dump := strings.Join(res.SampledSchedules, "\n")
		if dump != "" {
			dump += "\n"
		}
		if err := os.WriteFile(sampleDump, []byte(dump), 0o644); err != nil {
			fatal(fmt.Errorf("sample-dump: %w", err))
		}
		fmt.Printf("  sampled schedules saved to %s (%d distinct)\n", sampleDump, len(res.SampledSchedules))
	}
	fmt.Println(footer)
	if res.Errored() {
		exit(1)
	}
	exit(0)
}

// footer renders the closing throughput line. windowOK reports whether the
// trailing-window rate was ever actually measured: on sub-second runs (and
// serial runs, which have no progress monitor) the window tracker has no
// baseline sample, so the line falls back to the mean-only form instead of
// presenting an echo of the mean as a window measurement.
func footer(interleavings int, elapsed time.Duration, window float64, windowOK bool) string {
	rate := 0.0
	if s := elapsed.Seconds(); s > 0 {
		rate = float64(interleavings) / s
	}
	if windowOK {
		return fmt.Sprintf("explored %d interleavings in %v (%.1f interleavings/sec mean, %.1f/sec trailing window)",
			interleavings, elapsed.Round(time.Millisecond), rate, window)
	}
	return fmt.Sprintf("explored %d interleavings in %v (%.1f interleavings/sec)",
		interleavings, elapsed.Round(time.Millisecond), rate)
}
