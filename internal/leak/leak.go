// Package leak implements DAMPI's local resource-error checks (paper
// Table II): communicator leaks (C-leak — communicators created but never
// freed before MPI_Finalize) and request leaks (R-leak — requests never
// completed by a Wait/Test before MPI_Finalize).
//
// The checks are purely local to each rank, mirroring the paper's scalable
// design: no communication is added; the tracker just observes the tool
// hooks.
package leak

import (
	"fmt"
	"sort"

	"dampi/mpi"
)

// Tracker observes one run and reports leaks at finalize. Create one per
// run and stack its Hooks() below the verifier's. A world runs one rank at a
// time, so the hooks need no lock.
type Tracker struct {
	ranks map[int]*rankLeaks
}

type rankLeaks struct {
	liveComms map[int]string          // comm ID -> name
	liveReqs  map[*mpi.Request]string // outstanding requests
	finalized bool
	comms     []string // leak descriptions, filled at finalize
	reqs      []string
}

// NewTracker creates a leak tracker.
func NewTracker() *Tracker {
	return &Tracker{ranks: make(map[int]*rankLeaks)}
}

func (t *Tracker) state(rank int) *rankLeaks {
	st := t.ranks[rank]
	if st == nil {
		st = &rankLeaks{
			liveComms: make(map[int]string),
			liveReqs:  make(map[*mpi.Request]string),
		}
		t.ranks[rank] = st
	}
	return st
}

// Hooks returns the tool layer feeding the tracker.
func (t *Tracker) Hooks() *mpi.Hooks {
	return &mpi.Hooks{
		PostCommCreate: func(p *mpi.Proc, parent, created mpi.Comm) {
			st := t.state(p.Rank())
			st.liveComms[created.ID()] = created.Name()
		},
		PostCommFree: func(p *mpi.Proc, c mpi.Comm) {
			st := t.state(p.Rank())
			delete(st.liveComms, c.ID())
		},
		PostSend: func(p *mpi.Proc, op *mpi.SendOp, req *mpi.Request) {
			st := t.state(p.Rank())
			st.liveReqs[req] = fmt.Sprintf("send(to=%d tag=%d %s)", op.Dest, op.Tag, op.Comm)
		},
		PostRecv: func(p *mpi.Proc, op *mpi.RecvOp, req *mpi.Request) {
			st := t.state(p.Rank())
			st.liveReqs[req] = fmt.Sprintf("recv(src=%d tag=%d %s)", op.Src, op.Tag, op.Comm)
		},
		Complete: func(p *mpi.Proc, req *mpi.Request, _ mpi.Status) {
			st := t.state(p.Rank())
			delete(st.liveReqs, req)
		},
		AtFinalize: func(p *mpi.Proc) {
			st := t.state(p.Rank())
			st.finalized = true
			for id, name := range st.liveComms {
				st.comms = append(st.comms, fmt.Sprintf("rank %d: communicator %s#%d never freed", p.Rank(), name, id))
			}
			for _, desc := range st.liveReqs {
				st.reqs = append(st.reqs, fmt.Sprintf("rank %d: request %s never completed", p.Rank(), desc))
			}
			sort.Strings(st.comms)
			sort.Strings(st.reqs)
		},
	}
}

// Report is the aggregated leak summary of a run.
type Report struct {
	// CommLeaks and RequestLeaks describe each leak.
	CommLeaks    []string
	RequestLeaks []string
}

// HasCommLeak reports whether any communicator leaked (Table II "C-Leak").
func (r *Report) HasCommLeak() bool { return len(r.CommLeaks) > 0 }

// HasRequestLeak reports whether any request leaked (Table II "R-Leak").
func (r *Report) HasRequestLeak() bool { return len(r.RequestLeaks) > 0 }

func (r *Report) String() string {
	return fmt.Sprintf("leaks{comms=%d requests=%d}", len(r.CommLeaks), len(r.RequestLeaks))
}

// Report gathers the per-rank results after the run.
func (t *Tracker) Report() *Report {
	rep := &Report{}
	ranks := make([]int, 0, len(t.ranks))
	for r := range t.ranks {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		rep.CommLeaks = append(rep.CommLeaks, t.ranks[r].comms...)
		rep.RequestLeaks = append(rep.RequestLeaks, t.ranks[r].reqs...)
	}
	return rep
}
