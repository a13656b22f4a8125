// Package isp implements the baseline DAMPI is compared against: ISP, the
// authors' earlier centralized dynamic verifier (§II-A). Every MPI call a
// rank makes performs a synchronous round-trip to a single scheduler
// goroutine that maintains a global view of pending sends and held wildcard
// receives, decides wildcard matches from that global view, rewrites the
// receives to deterministic sources, and drives depth-first replay over its
// decision points.
//
// The architecture — not the specific constants — is the point: the
// per-call synchronous communication with one central scheduler, and the
// scheduler's global-state bookkeeping, are exactly the scalability
// bottleneck the paper's Figures 5 and 6 demonstrate.
package isp

import (
	"fmt"

	"dampi/mpi"
)

// DecisionKey identifies a wildcard decision point across runs: the rank and
// its k-th wildcard operation.
type DecisionKey struct {
	Rank int
	Idx  int
}

func (k DecisionKey) String() string { return fmt.Sprintf("(%d,#%d)", k.Rank, k.Idx) }

// Decision records one wildcard match the scheduler enforced.
type Decision struct {
	Key        DecisionKey
	Chosen     int
	Alternates []int
	Forced     bool
}

// scheduler is the centralized ISP scheduler for one run.
type scheduler struct {
	world  *mpi.World
	forced map[DecisionKey]int

	events chan *event
	done   chan struct{}

	// All state below is owned by the scheduler goroutine.
	status    []rankStatus
	wcIdx     []int
	pending   []*sendRec // unmatched sends, grant order
	debts     []*sendRec // wildcard claims made before the send registered
	held      []*heldOp
	seq       uint64
	readiness int // last readiness-sweep summary
	decisions []*Decision
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

type heldOp struct {
	rank  int
	recv  *mpi.RecvOp
	probe *mpi.ProbeOp
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

func newScheduler(procs int, world *mpi.World, forced map[DecisionKey]int) *scheduler {
	if forced == nil {
		forced = make(map[DecisionKey]int)
	}
	return &scheduler{
		world:  world,
		forced: forced,
		events: make(chan *event),
		done:   make(chan struct{}),
		status: make([]rankStatus, procs),
		wcIdx:  make([]int, procs),
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
		var commID, tag int
		if h.recv != nil {
			commID, tag = h.recv.Comm.ID(), h.recv.Tag
		} else {
			commID, tag = h.probe.Comm.ID(), h.probe.Tag
		}
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
	case evRecv:
		if ev.recv.WasAnySource {
			if src, ok := s.forced[DecisionKey{Rank: ev.rank, Idx: s.wcIdx[ev.rank]}]; ok {
				// Replay: enforce the recorded match.
				ev.recv.Src = src
				s.claimSend(ev.rank, ev.recv.Comm.ID(), ev.recv.Tag, src)
				s.recordDecision(ev.rank, src, nil, true)
			} else {
				s.hold(ev, &heldOp{rank: ev.rank, recv: ev.recv})
			}
		}
	case evProbe:
		if ev.probe.WasAnySource {
			if src, ok := s.forced[DecisionKey{Rank: ev.rank, Idx: s.wcIdx[ev.rank]}]; ok {
				ev.probe.Src = src
				s.recordDecision(ev.rank, src, nil, true)
			} else {
				s.hold(ev, &heldOp{rank: ev.rank, probe: ev.probe})
			}
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

// hold keeps a wildcard operation back until decide releases it.
func (s *scheduler) hold(ev *event, h *heldOp) {
	ev.held = true
	s.held = append(s.held, h)
	s.status[h.rank] = heldAtScheduler
}

func (s *scheduler) recordDecision(rank, chosen int, alts []int, forcedDecision bool) {
	s.decisions = append(s.decisions, &Decision{
		Key:        DecisionKey{Rank: rank, Idx: s.wcIdx[rank]},
		Chosen:     chosen,
		Alternates: alts,
		Forced:     forcedDecision,
	})
	s.wcIdx[rank]++
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
		var commID, tag int
		if h.recv != nil {
			commID, tag = h.recv.Comm.ID(), h.recv.Tag
		} else {
			commID, tag = h.probe.Comm.ID(), h.probe.Tag
		}
		cands := s.candidates(h.rank, commID, tag)
		if len(cands) == 0 {
			if h.probe != nil && !h.probe.Blocking {
				// A wildcard Iprobe may legitimately find nothing.
				s.release(i, h, -1, nil)
				return
			}
			continue
		}
		chosen := cands[0]
		s.release(i, h, chosen, cands[1:])
		return
	}
	// No held operation can be satisfied: global deadlock.
	blockedAt := make(map[int]string)
	for _, h := range s.held {
		if h.recv != nil {
			blockedAt[h.rank] = fmt.Sprintf("Recv(src=*, tag=%d) held by ISP scheduler with no matching send", h.recv.Tag)
		} else {
			blockedAt[h.rank] = fmt.Sprintf("Probe(src=*, tag=%d) held by ISP scheduler with no matching send", h.probe.Tag)
		}
	}
	for _, r := range s.world.BlockedRanks() {
		if _, ok := blockedAt[r]; !ok {
			blockedAt[r] = "blocked in runtime"
		}
	}
	s.world.AbortWith(&mpi.DeadlockError{BlockedAt: blockedAt})
}

// release determinizes and releases one held op. chosen < 0 releases the op
// unmodified (Iprobe with no candidates).
func (s *scheduler) release(i int, h *heldOp, chosen int, alts []int) {
	s.held = append(s.held[:i], s.held[i+1:]...)
	if chosen >= 0 {
		if h.recv != nil {
			h.recv.Src = chosen
			s.claimSend(h.rank, h.recv.Comm.ID(), h.recv.Tag, chosen)
		} else {
			h.probe.Src = chosen // probes do not consume the message
		}
		s.recordDecision(h.rank, chosen, alts, false)
	} else {
		s.wcIdx[h.rank]++
	}
	s.status[h.rank] = running
	s.world.Unpark(h.rank)
}
