// Package isp implements the baseline DAMPI is compared against: ISP, the
// authors' earlier centralized dynamic verifier (§II-A). Every MPI call a
// rank makes performs a synchronous round-trip to a single scheduler
// goroutine that maintains a global view of pending sends and held wildcard
// receives, decides wildcard matches from that global view, and rewrites the
// receives to deterministic sources. It records each decision as a
// core.EpochRecord, and core's depth-first search replays them.
//
// The architecture — not the specific constants — is the point: the
// per-call synchronous communication with one central scheduler, and the
// scheduler's global-state bookkeeping, are exactly the scalability
// bottleneck the paper's Figures 5 and 6 demonstrate.
package isp

import (
	"fmt"

	"dampi/internal/core"
	"dampi/mpi"
)

// scheduler is the centralized ISP scheduler for one run.
type scheduler struct {
	world  *mpi.World
	forced *core.Decisions // keyed by (rank, k-th wildcard operation)

	events chan *event
	done   chan struct{}

	// All state below is owned by the scheduler goroutine.
	status    []rankStatus
	wcIdx     []uint64   // per rank, the wildcard operations seen so far
	pending   []*sendRec // unmatched sends, grant order
	debts     []*sendRec // wildcard claims made before the send registered
	held      []heldOp
	seq       uint64
	readiness int // last readiness-sweep summary
	records   []*core.EpochRecord
}

type rankStatus int

const (
	running rankStatus = iota
	heldAtScheduler
	inWait
	finished
)

type sendRec struct {
	seq    uint64
	src    int // comm-local
	dest   int // comm-local
	tag    int
	commID int
}

// heldOp is a receive or probe of one rank: exactly one of recv and probe is
// set.
type heldOp struct {
	rank  int
	recv  *mpi.RecvOp
	probe *mpi.ProbeOp
}

// wildcard reports whether the operation was posted with MPI_ANY_SOURCE.
func (h heldOp) wildcard() bool {
	if h.recv != nil {
		return h.recv.WasAnySource
	}
	return h.probe.WasAnySource
}

// match returns the operation's communicator, tag and epoch kind.
func (h heldOp) match() (commID, tag int, kind core.EpochKind) {
	if h.recv != nil {
		return h.recv.Comm.ID(), h.recv.Tag, core.RecvEpoch
	}
	return h.probe.Comm.ID(), h.probe.Tag, core.ProbeEpoch
}

type eventKind int

const (
	evSend eventKind = iota
	evRecv
	evProbe
	evWaitEnter
	evComplete
	evColl
	evFinalize
	evIdle
)

type event struct {
	kind         eventKind
	rank         int
	send         *mpi.SendOp
	recv         *mpi.RecvOp
	probe        *mpi.ProbeOp
	commID       int
	status       mpi.Status
	isRecv       bool // for evComplete: a receive completion
	wasAnySource bool // for evComplete: the receive was posted wildcard
	held         bool // set by the scheduler: the rank must park until released
	reply        chan struct{}
}

func newScheduler(procs int, world *mpi.World, forced *core.Decisions) *scheduler {
	return &scheduler{
		world:  world,
		forced: forced,
		events: make(chan *event),
		done:   make(chan struct{}),
		status: make([]rankStatus, procs),
		wcIdx:  make([]uint64, procs),
	}
}

// roundTrip is the heart of the ISP cost model: the calling rank blocks
// until the central scheduler has processed its event. The scheduler is not
// a rank, so the wait keeps the rank's turn (see the mpi.Hooks contract).
func (s *scheduler) roundTrip(ev *event) {
	ev.reply = make(chan struct{})
	s.events <- ev
	<-ev.reply
}

// holdable is roundTrip for a wildcard receive or probe: if the scheduler
// holds the operation, the rank parks in the world scheduler until decide
// has determinized and released it (or the world failed).
func (s *scheduler) holdable(p *mpi.Proc, ev *event) {
	s.roundTrip(ev)
	if ev.held {
		_ = p.Park("held by ISP scheduler") // a failure resurfaces from the PMPI call
	}
}

// Hooks returns the ISP interposition layer.
func (s *scheduler) Hooks() *mpi.Hooks {
	return &mpi.Hooks{
		PreSend: func(p *mpi.Proc, op *mpi.SendOp) {
			s.roundTrip(&event{kind: evSend, rank: p.Rank(), send: op})
		},
		PreRecv: func(p *mpi.Proc, op *mpi.RecvOp) {
			s.holdable(p, &event{kind: evRecv, rank: p.Rank(), recv: op})
		},
		PostRecv: func(p *mpi.Proc, op *mpi.RecvOp, req *mpi.Request) {
			// Remember whether the application posted this receive wildcard;
			// the Complete event needs it for send-consumption bookkeeping.
			req.ToolData = op.WasAnySource
		},
		PreProbe: func(p *mpi.Proc, op *mpi.ProbeOp) {
			s.holdable(p, &event{kind: evProbe, rank: p.Rank(), probe: op})
		},
		PreWait: func(p *mpi.Proc, reqs []*mpi.Request) {
			s.roundTrip(&event{kind: evWaitEnter, rank: p.Rank()})
		},
		Complete: func(p *mpi.Proc, req *mpi.Request, st mpi.Status) {
			wasWC, _ := req.ToolData.(bool)
			s.roundTrip(&event{
				kind: evComplete, rank: p.Rank(), status: st,
				commID: req.Comm().ID(), isRecv: req.Kind() == mpi.KindRecv,
				wasAnySource: wasWC,
			})
		},
		PreColl: func(p *mpi.Proc, op *mpi.CollOp) {
			s.roundTrip(&event{kind: evColl, rank: p.Rank()})
		},
		AtFinalize: func(p *mpi.Proc) {
			s.roundTrip(&event{kind: evFinalize, rank: p.Rank()})
		},
		// No rank can take a step without the scheduler releasing a held
		// operation: every rank is held, finished, or parked inside the
		// runtime on an unsatisfied condition. This is ISP's quiescence.
		Idle: func(*mpi.World) {
			s.roundTrip(&event{kind: evIdle})
		},
	}
}

// loop is the scheduler goroutine: it serves events until stop.
func (s *scheduler) loop() {
	for {
		select {
		case ev := <-s.events:
			s.handle(ev)
		case <-s.done:
			return
		}
	}
}

func (s *scheduler) stop() {
	close(s.done)
}

// readinessSweep recomputes the scheduler's global readiness view: which
// ranks could be released, which pending sends could satisfy which held
// operations. ISP's POE algorithm performs this global recomputation on
// every transition — it is the algorithmic (not just serialization) cost of
// centralized scheduling, growing with both process count and live state.
func (s *scheduler) readinessSweep() {
	ready := 0
	for _, st := range s.status {
		if st == running {
			ready++
		}
	}
	matchable := 0
	for _, h := range s.held {
		commID, tag, _ := h.match()
		for _, sr := range s.pending {
			if sr.commID == commID && sr.dest == h.rank && (tag == mpi.AnyTag || sr.tag == tag) {
				matchable++
				break
			}
		}
	}
	s.readiness = ready + matchable
}

func (s *scheduler) handle(ev *event) {
	defer close(ev.reply)
	if ev.kind == evIdle {
		// With nothing held the runtime's own deadlock report is the answer.
		if len(s.held) > 0 {
			s.decide()
		}
		return
	}
	s.readinessSweep()
	s.status[ev.rank] = running
	switch ev.kind {
	case evSend:
		s.seq++
		sr := &sendRec{
			seq: s.seq, src: ev.send.Comm.Rank(), dest: ev.send.Dest,
			tag: ev.send.Tag, commID: ev.send.Comm.ID(),
		}
		// A forced replay decision may have claimed this send before it was
		// registered; settle the debt instead of listing it as pending.
		for i, d := range s.debts {
			if d.commID == sr.commID && d.dest == sr.dest && d.src == sr.src &&
				(d.tag == mpi.AnyTag || d.tag == sr.tag) {
				s.debts = append(s.debts[:i], s.debts[i+1:]...)
				sr = nil
				break
			}
		}
		if sr != nil {
			s.pending = append(s.pending, sr)
		}
	case evRecv, evProbe:
		h := heldOp{rank: ev.rank, recv: ev.recv, probe: ev.probe}
		if !h.wildcard() {
			break
		}
		if src, ok := s.forced.Lookup(ev.rank, s.wcIdx[ev.rank]); ok {
			s.determinize(h, src, nil, true) // replay: enforce the recorded match
		} else {
			// Hold it until decide releases it.
			ev.held = true
			s.held = append(s.held, h)
			s.status[h.rank] = heldAtScheduler
		}
	case evWaitEnter:
		s.status[ev.rank] = inWait
	case evComplete:
		// Wildcard receives were already claimed at decision time;
		// deterministic receives consume their send now.
		if ev.isRecv && !ev.wasAnySource {
			s.consumeSend(ev.commID, ev.rank, ev.status)
		}
	case evColl:
		// Collectives are deterministic; the round-trip itself is the cost.
	case evFinalize:
		s.status[ev.rank] = finished
	}
}

// determinize rewrites a wildcard operation to the source src and records
// the decision as the rank's next wildcard epoch: LC is its index among the
// rank's wildcard operations, Order the release order. guided marks a
// decision the forced set imposed.
func (s *scheduler) determinize(h heldOp, src int, alts []int, guided bool) {
	commID, tag, kind := h.match()
	if h.recv != nil {
		h.recv.Src = src
		s.claimSend(h.rank, commID, tag, src)
	} else {
		h.probe.Src = src // probes do not consume the message
	}
	s.records = append(s.records, &core.EpochRecord{
		Rank: h.rank, LC: s.wcIdx[h.rank], CommID: commID, Tag: tag, Kind: kind,
		Chosen: src, Alternates: alts, Guided: guided, Order: uint64(len(s.records)),
	})
	s.wcIdx[h.rank]++
}

// consumeSend removes the earliest pending send matching a completed
// receive. The linear scan over global state is part of the ISP cost model.
func (s *scheduler) consumeSend(commID, dest int, st mpi.Status) {
	for i, sr := range s.pending {
		if sr.commID == commID && sr.dest == dest && sr.src == st.Source && sr.tag == st.Tag {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
}

// claimSend removes the earliest pending send a wildcard decision consumed,
// so subsequent wildcard decisions cannot be matched to the same message
// (non-overtaking bookkeeping). If the send has not yet registered — a
// forced replay decision can run ahead of the sender — a debt is recorded
// and settled when the send arrives.
func (s *scheduler) claimSend(dest, commID, tag, src int) {
	for i, sr := range s.pending {
		if sr.commID == commID && sr.dest == dest && sr.src == src &&
			(tag == mpi.AnyTag || sr.tag == tag) {
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			return
		}
	}
	s.debts = append(s.debts, &sendRec{src: src, dest: dest, tag: tag, commID: commID})
}

// candidates computes the matchable sources for a held wildcard from the
// scheduler's global view: the earliest pending send per source, respecting
// non-overtaking order.
func (s *scheduler) candidates(rank, commID, tag int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, sr := range s.pending {
		if sr.commID != commID || sr.dest != rank {
			continue
		}
		if tag != mpi.AnyTag && sr.tag != tag {
			continue
		}
		if !seen[sr.src] {
			seen[sr.src] = true
			out = append(out, sr.src)
		}
	}
	return out
}

// decide resolves held wildcards at quiescence: the first held operation
// with candidates is determinized and released. If nothing can be released,
// the system is deadlocked.
func (s *scheduler) decide() {
	for i, h := range s.held {
		commID, tag, _ := h.match()
		cands := s.candidates(h.rank, commID, tag)
		if len(cands) == 0 {
			if h.probe != nil && !h.probe.Blocking {
				// A wildcard Iprobe may legitimately find nothing.
				s.release(i, -1, nil)
				return
			}
			continue
		}
		s.release(i, cands[0], cands[1:])
		return
	}
	// No held operation can be satisfied: global deadlock.
	blockedAt := make(map[int]string)
	for _, h := range s.held {
		_, tag, kind := h.match()
		op := "Recv"
		if kind == core.ProbeEpoch {
			op = "Probe"
		}
		blockedAt[h.rank] = fmt.Sprintf("%s(src=*, tag=%d) held by ISP scheduler with no matching send", op, tag)
	}
	for _, r := range s.world.BlockedRanks() {
		if _, ok := blockedAt[r]; !ok {
			blockedAt[r] = "blocked in runtime"
		}
	}
	s.world.AbortWith(&mpi.DeadlockError{BlockedAt: blockedAt})
}

// release determinizes held op i to chosen, with the other candidates as its
// alternates, and lets its rank run. chosen < 0 releases it unmodified: an
// Iprobe with no candidates takes its wildcard index but records nothing.
func (s *scheduler) release(i, chosen int, alts []int) {
	h := s.held[i]
	s.held = append(s.held[:i], s.held[i+1:]...)
	if chosen >= 0 {
		s.determinize(h, chosen, alts, false)
	} else {
		s.wcIdx[h.rank]++
	}
	s.status[h.rank] = running
	s.world.Unpark(h.rank)
}
