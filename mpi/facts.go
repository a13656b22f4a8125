package mpi

import (
	"fmt"
	"slices"
	"strings"
)

// What a finished world knows about how its application used MPI: the
// operation mix of the paper's Table I and the resource leaks of its Table II
// (C-leak, R-leak). Both are purely local facts — no communication is added —
// that the runtime keeps for every world, tool or no tool. A tool's own PMPI
// traffic is not the application's and is neither counted nor reported.

// OpCounts tallies application MPI calls in the paper's Table I classes.
type OpCounts struct {
	// SendRecv counts point-to-point calls, probes included; a blocking
	// Send or Recv is one call.
	SendRecv int64
	// Coll counts collective calls, communicator management included.
	Coll int64
	// Wait counts Wait/Test-family calls (one per request for Waitall).
	Wait int64
}

// Ops returns the calls the world's ranks have made so far, all together.
func (w *World) Ops() OpCounts { return w.ops }

// CommRef names a communicator handle by value, so it can be printed after
// its world is gone: it renders as Comm.String does.
type CommRef struct {
	Name string
	ID   int
	Rank int // the holder's rank within the communicator
	Size int
}

func (c CommRef) String() string {
	return fmt.Sprintf("Comm(%s#%d rank %d/%d)", c.Name, c.ID, c.Rank, c.Size)
}

// CommLeak is a communicator a rank was a member of and had not freed when
// its program returned (the paper's C-leak).
type CommLeak struct {
	Rank int // world rank
	Comm CommRef
}

func (l CommLeak) String() string {
	return fmt.Sprintf("rank %d: communicator %s#%d never freed", l.Rank, l.Comm.Name, l.Comm.ID)
}

// RequestLeak is a request Isend/Issend/Irecv handed to a rank's program
// whose completion no Wait/Test had consumed when the program returned (the
// paper's R-leak). Peer and Tag are as posted.
type RequestLeak struct {
	Rank int // world rank
	Kind RequestKind
	Peer int
	Tag  int
	Comm CommRef
}

func (l RequestLeak) String() string {
	if l.Kind == KindSend {
		return fmt.Sprintf("rank %d: request send(to=%d tag=%d %s) never completed", l.Rank, l.Peer, l.Tag, l.Comm)
	}
	return fmt.Sprintf("rank %d: request recv(src=%d tag=%d %s) never completed", l.Rank, l.Peer, l.Tag, l.Comm)
}

// CommLeaks reports, after Run and before the next world on the same Pools,
// every communicator created by the world that a rank whose program returned
// is a member of and has not freed: by ascending rank, each rank's leaks in
// the order of their text. A rank that panicked or called runtime.Goexit
// reports nothing.
func (w *World) CommLeaks() []CommLeak {
	var out []CommLeak
	for _, p := range w.procs {
		if !p.returned {
			continue
		}
		n := len(out)
		for _, ci := range w.comms[:w.liveComms] {
			lr, member := ci.rankOf[p.Rank()]
			if ci == w.worldComm || !member || ci.ranks[lr].freed {
				continue
			}
			out = append(out, CommLeak{Rank: p.Rank(), Comm: ci.ref(lr)})
		}
		sortByText(out[n:])
	}
	return out
}

// RequestLeaks reports, after Run and before the next world on the same
// Pools, every request handed to the program of a rank whose program
// returned that no Wait/Test consumed — a blocking call's own request is
// never the program's — ordered like CommLeaks.
func (w *World) RequestLeaks() []RequestLeak {
	var out []RequestLeak
	for _, p := range w.procs {
		if !p.returned {
			continue
		}
		n := len(out)
		for _, r := range p.pool.escaped {
			if !r.consumed {
				out = append(out, RequestLeak{Rank: p.Rank(), Kind: r.kind, Peer: r.peer, Tag: r.tag, Comm: r.comm.info.ref(r.comm.localRank)})
			}
		}
		sortByText(out[n:])
	}
	return out
}

func (ci *commInfo) ref(localRank int) CommRef {
	return CommRef{Name: ci.label(), ID: ci.id, Rank: localRank, Size: len(ci.members)}
}

func sortByText[T fmt.Stringer](s []T) {
	slices.SortFunc(s, func(a, b T) int { return strings.Compare(a.String(), b.String()) })
}
