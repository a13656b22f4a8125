package main

import (
	"errors"
	"testing"

	"dampi/mpi"
	"dampi/verify"
)

// TestDeadlockReportGolden: the schedule is a function of the program, so the
// deadlocking interleaving of serverProgram is found at the same place, with
// the same reproducer, and reports the same stuck calls every run. (It is the
// self run: rank 2, last into the tool's start-up CommDup, keeps the turn and
// gets its request in first.)
func TestDeadlockReportGolden(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 3}, serverProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 1 || len(res.Errors) != 1 {
		t.Fatalf("%s; want 1 deadlock", res.Summary())
	}
	e := res.Errors[0]
	if got, want := e.Decisions.String(), "{r0:[0→2]}"; e.Index != 0 || got != want {
		t.Errorf("deadlock in interleaving #%d under %s, want #0 under %s", e.Index, got, want)
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
