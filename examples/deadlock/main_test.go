package main

import (
	"errors"
	"testing"

	"dampi/mpi"
	"dampi/verify"
)

// TestDeadlockReportGolden: the schedule is a function of the program, so the
// deadlocking interleaving of serverProgram is found at the same place, with
// the same reproducer, and reports the same stuck calls every run. (It is
// interleaving #1: the self run takes the schedule the uninstrumented program
// takes — rank 1's request reaches the server first — and that one completes.
// Re-pinned from #0 when the tool stopped opening every run with a collective
// CommDup, which let rank 2, last into it, keep the turn and send first.)
func TestDeadlockReportGolden(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 3}, serverProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 1 || len(res.Errors) != 1 {
		t.Fatalf("%s; want 1 deadlock", res.Summary())
	}
	e := res.Errors[0]
	if got, want := e.Decisions.String(), "{r0:[0→2]}"; e.Index != 1 || got != want {
		t.Errorf("deadlock in interleaving #%d under %s, want #1 under %s", e.Index, got, want)
	}
	var dl *mpi.DeadlockError
	if !errors.As(e.Err, &dl) {
		t.Fatalf("error is %v, want a deadlock", e.Err)
	}
	const want = `rank 0: Wait(recv peer=2 tag=2 Comm(world#0 rank 0/3))
rank 1: Wait(recv peer=0 tag=1 Comm(world#0 rank 1/3))
`
	if got := dl.Detail(); got != want {
		t.Errorf("interleaving #%d (%v) blocked at:\n%s\nwant:\n%s", e.Index, e.Decisions, got, want)
	}
}
