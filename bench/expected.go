package main

// The pinned known-answer table. Every number here was written by hand from
// an independent run and is never recomputed by the run that checks it: a
// verdict the verifier reports is compared against this file, and a
// mismatch is a failed verification (exit status 1).
//
// ADLB has no exact count: past the forced prefix its replays depend on
// goroutine arrival order, and uncapped coverage varies run to run (k=1 was
// seen between 3391 and 4694 interleavings). It always runs under
// MaxInterleavings and the oracle is "the cap was reached, no error".

// coverage is an exhaustive exploration's exact outcome.
type coverage struct {
	Interleavings  int
	DecisionPoints int // 0 = not pinned
	Deadlocks      int
}

// matmulCase is one exact matmul exploration (default matmul.Config).
type matmulCase struct {
	Procs, MixingBound int
	Want               coverage
}

var expectMatmul = []matmulCase{
	{Procs: 8, MixingBound: 0, Want: coverage{Interleavings: 64}},
	{Procs: 8, MixingBound: 1, Want: coverage{Interleavings: 1877, DecisionPoints: 11452}},
	{Procs: 6, MixingBound: 2, Want: coverage{Interleavings: 3416, DecisionPoints: 11667}},
}

// The service workload's job: matmul p=8 k=0, whose cap (1000+i) is never
// reached, so every job must report exactly this.
const expectServiceInterleavings = 64

// The null-replay tree: 7 epochs on rank 0, 3 alternates each, unbounded
// mixing — 4^7 tasks on the serial explorer, dexplore and dcoord alike.
const (
	nullTreeDepth   = 7
	expectNullTasks = 16384
)

// Fig. 4 cross-coupled pattern: Lamport clocks miss the concurrent cross
// matches, vector clocks find both and each one deadlocks.
var (
	expectFig4Lamport = coverage{Interleavings: 1}
	expectFig4Vector  = coverage{Interleavings: 3, Deadlocks: 2}
)

// singleRun pins one instrumented run of a deterministic-count program:
// R* (wildcard epochs analysed) and the Table I operation total.
type singleRun struct {
	RStar int
	Ops   int64
}

var (
	// parmetis.Program{Scale 10} at 16 ranks: 4960 ops per rank, no wildcard.
	expectParmetis = singleRun{RStar: 0, Ops: 79360}
	// 104.milc at 64 ranks, Scale 100, Iters 4: 169 ops per rank.
	expectMilc = singleRun{RStar: 3072, Ops: 10816}
)

// The seeded iprobe sample (pct, 2000 samples, 2 ranks) must reach the
// master's abandoned-worker deadlock, whatever the seed.
const expectSampleFindsDeadlock = true
