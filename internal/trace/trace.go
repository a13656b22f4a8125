// Package trace logs MPI operation statistics per rank, reproducing the
// methodology behind the paper's Table I: operations are classified as
// Send-Recv (all point-to-point calls, probes included), Collective, or Wait
// (each completion call). Local operations (communicator queries etc.) are
// not counted, as in the paper.
package trace

import "fmt"

// Stats accumulates per-rank operation counts of one world, which runs one
// rank at a time: the counters are plain integers.
type Stats struct {
	procs    int
	sendRecv []int64
	coll     []int64
	wait     []int64
}

// NewStats creates a collector for a world of the given size.
func NewStats(procs int) *Stats {
	return &Stats{
		procs:    procs,
		sendRecv: make([]int64, procs),
		coll:     make([]int64, procs),
		wait:     make([]int64, procs),
	}
}

// Procs returns the world size the collector was built for.
func (s *Stats) Procs() int { return s.procs }

// CountSendRecv records one point-to-point operation on rank.
func (s *Stats) CountSendRecv(rank int) { s.sendRecv[rank]++ }

// CountCollective records one collective operation on rank.
func (s *Stats) CountCollective(rank int) { s.coll[rank]++ }

// CountWait records one completion operation on rank.
func (s *Stats) CountWait(rank int) { s.wait[rank]++ }

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

// Totals aggregates all ranks.
func (s *Stats) Totals() Totals {
	t := Totals{Procs: s.procs}
	for i := 0; i < s.procs; i++ {
		t.SendRecv += s.sendRecv[i]
		t.Coll += s.coll[i]
		t.Wait += s.wait[i]
	}
	t.All = t.SendRecv + t.Coll + t.Wait
	return t
}

// RankTotals returns one rank's counts.
func (s *Stats) RankTotals(rank int) Totals {
	t := Totals{Procs: 1}
	t.SendRecv = s.sendRecv[rank]
	t.Coll = s.coll[rank]
	t.Wait = s.wait[rank]
	t.All = t.SendRecv + t.Coll + t.Wait
	return t
}
