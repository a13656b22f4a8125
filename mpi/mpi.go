// Package mpi is an in-process MPI runtime simulator: the substrate on which
// the DAMPI verifier (internal/core) and the ISP baseline (internal/isp) run.
//
// The real DAMPI runs on a production MPI library (MVAPICH2) on a cluster;
// there is no MPI binding or PMPI interposition path for Go, so this package
// implements the MPI semantics the verifier observes and controls:
//
//   - ranks are coroutines run one at a time by World.Run: a rank keeps the
//     turn until an MPI call parks it, polls and finds nothing, or it
//     returns, and the scheduler then resumes the lowest runnable rank (see
//     World);
//   - point-to-point messages are matched with MPI matching semantics:
//     per-(source, communicator, tag) FIFO ("non-overtaking"), wildcard
//     source and tag, eager standard sends, synchronous sends, unexpected
//     and posted-receive queues;
//   - nonblocking operations return Requests completed by the Wait/Test
//     family;
//   - probes, the common collectives, and communicator management
//     (dup, split, free) are provided;
//   - a deadlock is detected precisely: no rank runnable and not all
//     finished is the deadlock, and the runtime reports who was stuck where;
//   - every call flows through an optional tool layer (Hooks), the moral
//     equivalent of the PMPI profiling interface: tools may observe calls,
//     rewrite wildcard receive sources, attach state to requests, and issue
//     their own "PMPI-level" (unhooked) operations.
//
// Wildcard receives are matched against the earliest eligible message in
// arrival order. Arrival order is fixed by the scheduler's pick rule, so a
// run is a function of the program and of what the tool layer forces: the
// non-determinism of a real MPI job — exactly the behaviour DAMPI exists to
// cover — is the set of alternate matches the verifier replays, not an
// accident of goroutine timing.
//
// What a program author must know: a rank must not wait for another rank
// through a Go channel, mutex or WaitGroup, only through MPI. The waiting
// rank would keep the only turn and the world would hang.
package mpi

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
)

// Wildcard and special rank values, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// ErrAborted is returned from MPI calls after the world has been aborted,
// either explicitly via Proc.Abort or by a fatal runtime condition.
var ErrAborted = errors.New("mpi: world aborted")

// ErrFinalized is returned from MPI calls made after the rank finalized.
var ErrFinalized = errors.New("mpi: rank already finalized")

// UsageError reports a violation of MPI call semantics, e.g. mismatched
// collectives or an out-of-range rank.
type UsageError struct {
	Rank int
	Op   string
	Msg  string
}

func (e *UsageError) Error() string {
	return fmt.Sprintf("mpi: usage error on rank %d in %s: %s", e.Rank, e.Op, e.Msg)
}

// DeadlockError reports that every unfinished rank was blocked with no
// enabled transition. BlockedAt maps world rank to a description of the call
// it was stuck in.
type DeadlockError struct {
	BlockedAt map[int]string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("mpi: deadlock detected (%d ranks blocked)", len(e.BlockedAt))
}

// Detail renders BlockedAt one "rank N: call" line per blocked rank, in rank
// order: the same text for the same schedule.
func (e *DeadlockError) Detail() string {
	var b strings.Builder
	for _, r := range slices.Sorted(maps.Keys(e.BlockedAt)) {
		fmt.Fprintf(&b, "rank %d: %s\n", r, e.BlockedAt[r])
	}
	return b.String()
}

// IsDeadlock reports whether err is (or wraps) a deadlock report.
func IsDeadlock(err error) bool {
	var d *DeadlockError
	return errors.As(err, &d)
}

// Status describes a completed receive or a probed message.
type Status struct {
	Source int // communicator-local source rank
	Tag    int
	Count  int // payload length in bytes
}

// RequestKind distinguishes send and receive requests.
type RequestKind int

// Request kinds.
const (
	KindSend RequestKind = iota
	KindRecv
)

func (k RequestKind) String() string {
	if k == KindSend {
		return "send"
	}
	return "recv"
}
