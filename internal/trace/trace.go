// Package trace presents MPI operation statistics in the shape of the paper's
// Table I: operations are classified as Send-Recv (all point-to-point calls,
// probes included), Collective, or Wait (each completion call). Local
// operations (communicator queries etc.) are not counted, as in the paper.
// The runtime does the counting (mpi.World.Ops).
package trace

import (
	"fmt"

	"dampi/mpi"
)

// Stats is one run's operation counts over its world size.
type Stats struct{ t Totals }

// NewStats tallies ops, the counts of a world of procs ranks.
func NewStats(procs int, ops mpi.OpCounts) *Stats {
	return &Stats{Totals{
		Procs:    procs,
		All:      ops.SendRecv + ops.Coll + ops.Wait,
		SendRecv: ops.SendRecv,
		Coll:     ops.Coll,
		Wait:     ops.Wait,
	}}
}

// Totals returns the counts in the shape of the paper's Table I.
func (s *Stats) Totals() Totals { return s.t }

// Totals summarizes the counts in the shape of the paper's Table I.
type Totals struct {
	Procs    int
	All      int64
	SendRecv int64
	Coll     int64
	Wait     int64
}

// AllPerProc returns total operations per process.
func (t Totals) AllPerProc() int64 { return t.All / int64(t.Procs) }

// SendRecvPerProc returns point-to-point operations per process.
func (t Totals) SendRecvPerProc() int64 { return t.SendRecv / int64(t.Procs) }

// CollPerProc returns collective operations per process.
func (t Totals) CollPerProc() int64 { return t.Coll / int64(t.Procs) }

// WaitPerProc returns completion operations per process.
func (t Totals) WaitPerProc() int64 { return t.Wait / int64(t.Procs) }

func (t Totals) String() string {
	return fmt.Sprintf("ops{procs=%d all=%d sendrecv=%d coll=%d wait=%d}",
		t.Procs, t.All, t.SendRecv, t.Coll, t.Wait)
}
