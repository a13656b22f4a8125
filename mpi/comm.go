package mpi

import (
	"fmt"
	"slices"
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

	ranks []commRank // per comm-local rank

	// Collective rendezvous state: in-flight instances keyed by the members'
	// entry sequence number (commRank.collSeq).
	colls    map[uint32]*collective
	collFree []*collective // retired instances, reused by enterCollective

	// The tool context (PMPI.Tool): nil until a tool layer first asks, then
	// kept with this storage from world to world; toolLive says it is open for
	// the communicator this storage currently is. In the tool context itself
	// parent points back, and members and ranks alias the parent's.
	tool     *commInfo
	toolLive bool
	parent   *commInfo
}

// commRank is one member's state in a communicator.
type commRank struct {
	collSeq uint32 // collectives this rank has entered; wraps, as every member's does
	freed   bool   // this rank has freed its handle
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
// (index = comm-local rank), copying them.
func (w *World) newComm(name string, members []int) *commInfo {
	ci := w.claimComm(name, len(members))
	copy(ci.members, members)
	ci.mapRanks()
	return ci
}

// claimComm gives a communicator of n members its identity; the caller
// writes its members (comm-local rank -> world rank) and calls mapRanks. A
// parked communicator of the same size is reused when the world's Pools
// carried one over: NewWorld already reset it, so only its identity is
// rewritten here and its mailboxes keep their grown capacity.
func (w *World) claimComm(name string, n int) *commInfo {
	j := w.liveComms
	for j < len(w.comms) && len(w.comms[j].boxes) != n {
		j++
	}
	if j == len(w.comms) {
		w.comms = append(w.comms, &commInfo{
			rankOf: make(map[int]int, n),
			boxes:  make([]mailbox, n),
			ranks:  make([]commRank, n),
			colls:  make(map[uint32]*collective),
		})
	}
	w.comms[w.liveComms], w.comms[j] = w.comms[j], w.comms[w.liveComms]
	ci := w.comms[w.liveComms]
	w.liveComms++

	ci.id = w.nextComm
	w.nextComm++
	ci.name = name
	ci.toolLive = false
	ci.members = slices.Grow(ci.members[:0], n)[:n]
	return ci
}

// mapRanks indexes the members claimComm's caller wrote by world rank.
func (ci *commInfo) mapRanks() {
	clear(ci.rankOf)
	for lr, wr := range ci.members {
		ci.rankOf[wr] = lr
	}
}

// Tool returns c's tool context: a private matching context over the same
// group, on which a tool layer sends its own point-to-point traffic without
// ever matching — or being matched by — an application receive or probe on c.
// A PMPI tool over someone else's MPI must build one with a collective
// MPI_Comm_dup per communicator; a runtime that owns its communicators gives
// each a second context instead, as MPICH does for its collectives. The first
// rank to ask opens it — ranks run one at a time, so nobody parks or yields —
// and a world no tool asks allocates nothing for it. It lives and dies with c
// (a freed handle, or a tool handle from before the free, is a UsageError) and
// has no collectives and no tool context of its own.
func (m PMPI) Tool(c Comm) (Comm, error) {
	if !c.Valid() {
		return Comm{}, &UsageError{Rank: m.p.Rank(), Op: "Tool", Msg: "invalid communicator"}
	}
	if err := c.checkLive(m.p, "Tool"); err != nil {
		return Comm{}, err
	}
	ci := c.info
	if ci.parent != nil {
		return Comm{}, &UsageError{Rank: m.p.Rank(), Op: "Tool", Msg: fmt.Sprintf("%s is a tool context", c)}
	}
	if !ci.toolLive {
		if ci.tool == nil {
			ci.tool = &commInfo{parent: ci, boxes: make([]mailbox, len(ci.members))}
		}
		ci.tool.id = -2 - ci.id // outside nextComm's space: application ids never move
		ci.tool.members = ci.members
		ci.tool.ranks = ci.ranks
		ci.toolLive = true
	}
	return Comm{info: ci.tool, localRank: c.localRank}, nil
}

// ID returns the communicator's world-unique identity: 0 for MPI_COMM_WORLD,
// then 1, 2, ... in creation order, whether or not a tool layer is watching. A
// tool context has a negative one.
func (c Comm) ID() int {
	if c.info == nil {
		return -1
	}
	return c.info.id
}

// Name returns the communicator's debug name; a tool context is named after
// its communicator ("world.tool").
func (c Comm) Name() string {
	if c.info == nil {
		return "<nil>"
	}
	return c.info.label()
}

func (ci *commInfo) label() string {
	if ci.parent != nil {
		return ci.parent.name + ".tool"
	}
	return ci.name
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
	return c.info.ref(c.localRank).String()
}

// checkLive reports a usage error if the holder already freed this
// communicator (use-after-free of an MPI communicator handle).
func (c Comm) checkLive(p *Proc, op string) error {
	if c.info.ranks[c.localRank].freed {
		return &UsageError{Rank: p.Rank(), Op: op, Msg: fmt.Sprintf("use of freed communicator %s#%d", c.info.label(), c.info.id)}
	}
	return nil
}

// checkPeer validates a peer rank argument (allowing wild if anySourceOK).
func (c Comm) checkPeer(p *Proc, op string, peer int, anySourceOK bool) error {
	if anySourceOK && peer == AnySource {
		return nil
	}
	if peer < 0 || peer >= len(c.info.members) {
		return &UsageError{Rank: p.Rank(), Op: op, Msg: fmt.Sprintf("peer rank %d out of range [0,%d)", peer, len(c.info.members))}
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
