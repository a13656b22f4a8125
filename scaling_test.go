// TestParallelScalingRegression guards the parallel engine's reason to
// exist: a pool of several slots must not fall off a cliff relative to one. It is a coarse tripwire, not a benchmark — the measured numbers
// come from the ledger (`go run ./bench`, see bench/README.md).
package dampi

import (
	"runtime"
	"testing"
	"time"

	"dampi/verify"
	"dampi/workloads/adlb"
)

func TestParallelScalingRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling measurement: skipped under -short")
	}
	serialProcs := runtime.GOMAXPROCS(0)
	prog := adlb.Program(adlb.DriverConfig{})
	measure := func(workers int) float64 {
		prev := runtime.GOMAXPROCS(parallelProcs(workers, serialProcs))
		defer runtime.GOMAXPROCS(prev)
		best := 0.0
		for i := 0; i < 3; i++ {
			start := time.Now()
			res, err := verify.Run(verify.Config{
				Procs: 8, MixingBound: 1, MaxInterleavings: 1000, Workers: workers,
			}, prog)
			el := time.Since(start)
			if err != nil {
				t.Fatal(err)
			}
			if res.Errored() {
				t.Fatal(res.Errors[0].Err)
			}
			if rate := float64(res.Interleavings) / el.Seconds(); rate > best {
				best = rate
			}
		}
		return best
	}

	w1 := measure(1)
	w4 := measure(4)

	// Generous tolerance: on a machine with >= 4 cores, 4 workers should beat
	// 1, but this test also runs on single-core CI where the best a parallel
	// pool can do is tie (minus cache and GC pressure from 4 live worlds) and
	// timing noise is large. 0.4 still catches the failure mode this guards
	// against — a shared lock serializing the pool so hard that adding
	// workers collapses throughput.
	const tolerance = 0.4
	t.Logf("adlb throughput: workers=1 %.1f/s, workers=4 %.1f/s (NumCPU=%d)", w1, w4, runtime.NumCPU())
	if w4 < tolerance*w1 {
		t.Errorf("workers=4 throughput %.1f/s is below %.0f%% of workers=1 %.1f/s: parallel pool is serializing",
			w4, tolerance*100, w1)
	}
}

// parallelProcs is the P count a workers-wide section is pinned to: at least
// the serial setting, raised toward the worker count but never past NumCPU —
// Ps beyond physical cores add scheduler churn, not parallelism, so on a
// machine with >= workers cores this yields GOMAXPROCS >= workers and on a
// smaller machine it honestly reports what the hardware can do.
func parallelProcs(workers, serial int) int {
	p := workers
	if n := runtime.NumCPU(); p > n {
		p = n
	}
	if p < serial {
		p = serial
	}
	return p
}
