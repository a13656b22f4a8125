package mpi

import (
	"fmt"
	"sort"
)

// Comm is a communicator handle as seen by one rank: it knows the group, the
// holder's rank within the group, and the underlying communicator identity.
// The zero Comm is invalid.
type Comm struct {
	info      *commInfo
	localRank int
}

// commInfo is the shared, world-side state of a communicator. Its storage
// outlives the world when the world runs on carried Pools: see
// World.newComm.
type commInfo struct {
	id      int
	name    string
	members []int       // comm-local rank -> world rank
	rankOf  map[int]int // world rank -> comm-local rank

	boxes []mailbox // per comm-local destination rank

	// Collective rendezvous state: per-rank entry sequence and in-flight
	// instances keyed by sequence number.
	collSeq  []uint64
	colls    map[uint64]*collective
	collFree []*collective // retired instances, reused by enterCollective

	freed []bool // per comm-local rank: has this rank freed the comm?
}

// mailbox holds the two matching queues of one destination rank in one
// communicator.
type mailbox struct {
	unexpected []*envelope
	posted     []*Request
}

// envelope is a message in flight (or sitting unexpected).
type envelope struct {
	src  int // comm-local sender rank
	tag  int
	data []byte
	seq  uint64   // global send order, for diagnostics
	sreq *Request // non-nil for synchronous sends: completed on match
}

// newComm creates a communicator over the given world-rank members
// (index = comm-local rank), copying them. A parked
// communicator of the same size is reused when the world's Pools carried one
// over: NewWorld already reset it, so only its identity is rewritten here
// and its mailboxes keep their grown capacity.
func (w *World) newComm(name string, members []int) *commInfo {
	n := len(members)
	j := w.liveComms
	for j < len(w.comms) && len(w.comms[j].boxes) != n {
		j++
	}
	if j == len(w.comms) {
		w.comms = append(w.comms, &commInfo{
			rankOf:  make(map[int]int, n),
			boxes:   make([]mailbox, n),
			collSeq: make([]uint64, n),
			colls:   make(map[uint64]*collective),
			freed:   make([]bool, n),
		})
	}
	w.comms[w.liveComms], w.comms[j] = w.comms[j], w.comms[w.liveComms]
	ci := w.comms[w.liveComms]
	w.liveComms++

	ci.id = w.nextComm
	w.nextComm++
	ci.name = name
	ci.members = append(ci.members[:0], members...)
	clear(ci.rankOf)
	for lr, wr := range members {
		ci.rankOf[wr] = lr
	}
	return ci
}

// ID returns the communicator's world-unique identity. Tool layers use it to
// key shadow communicators and epoch records.
func (c Comm) ID() int {
	if c.info == nil {
		return -1
	}
	return c.info.id
}

// Name returns the communicator's debug name.
func (c Comm) Name() string {
	if c.info == nil {
		return "<nil>"
	}
	return c.info.name
}

// Rank returns the holder's rank within the communicator.
func (c Comm) Rank() int { return c.localRank }

// Size returns the communicator's group size.
func (c Comm) Size() int {
	if c.info == nil {
		return 0
	}
	return len(c.info.members)
}

// Valid reports whether the handle refers to a live communicator.
func (c Comm) Valid() bool { return c.info != nil }

// WorldRank translates a comm-local rank to the world rank.
func (c Comm) WorldRank(local int) int { return c.info.members[local] }

func (c Comm) String() string {
	if c.info == nil {
		return "Comm(<nil>)"
	}
	return fmt.Sprintf("Comm(%s#%d rank %d/%d)", c.info.name, c.info.id, c.localRank, len(c.info.members))
}

// checkLive reports a usage error if the holder already freed this
// communicator (use-after-free of an MPI communicator handle).
func (c Comm) checkLive(p *Proc, op string) error {
	if c.info.freed[c.localRank] {
		return &UsageError{Rank: p.rank, Op: op, Msg: fmt.Sprintf("use of freed communicator %s#%d", c.info.name, c.info.id)}
	}
	return nil
}

// checkPeer validates a peer rank argument (allowing wild if anySourceOK).
func (c Comm) checkPeer(p *Proc, op string, peer int, anySourceOK bool) error {
	if anySourceOK && peer == AnySource {
		return nil
	}
	if peer < 0 || peer >= len(c.info.members) {
		return &UsageError{Rank: p.rank, Op: op, Msg: fmt.Sprintf("peer rank %d out of range [0,%d)", peer, len(c.info.members))}
	}
	return nil
}

// splitKey orders members within a split color group.
type splitKey struct {
	key       int
	localRank int
}

// computeSplit builds the member lists of a CommSplit from per-rank
// (color, key) contributions. Ranks with color < 0 get no communicator
// (MPI_UNDEFINED). Returns comm-local-rank-indexed colors and, per color,
// the member world ranks ordered by (key, old rank).
func computeSplit(parent *commInfo, colors, keys []int) map[int][]int {
	groups := make(map[int][]splitKey)
	for lr := range parent.members {
		c := colors[lr]
		if c < 0 {
			continue
		}
		groups[c] = append(groups[c], splitKey{key: keys[lr], localRank: lr})
	}
	out := make(map[int][]int, len(groups))
	for c, g := range groups {
		sort.Slice(g, func(i, j int) bool {
			if g[i].key != g[j].key {
				return g[i].key < g[j].key
			}
			return g[i].localRank < g[j].localRank
		})
		members := make([]int, len(g))
		for i, sk := range g {
			members[i] = parent.members[sk.localRank]
		}
		out[c] = members
	}
	return out
}
