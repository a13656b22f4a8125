package core

import (
	"fmt"
	"math"
	"slices"

	"dampi/internal/clock"
	"dampi/internal/piggyback"
	"dampi/mpi"
)

// Transport selects the piggyback mechanism (paper §II-D).
type Transport int

// Piggyback transports.
const (
	// Separate sends one piggyback message per payload on the communicator's
	// tool context (the paper's shadow communicator) — the paper's
	// implementation choice.
	Separate Transport = iota
	// Inband packs the clock into the payload itself ("data payload
	// packing"): half the messages, at the cost of rewriting every payload
	// and probes observing the packed length.
	Inband
)

func (t Transport) String() string {
	if t == Inband {
		return "inband"
	}
	return "separate"
}

// Pcontrol protocol for the loop-iteration-abstraction heuristic (§III-B1):
// wildcard epochs between LoopBegin and LoopEnd are recorded but their
// alternates are not explored.
const (
	PcontrolLoopLevel = 1
	LoopBegin         = "loop:begin"
	LoopEnd           = "loop:end"
)

// ToolConfig configures one run's DAMPI instrumentation.
type ToolConfig struct {
	// Procs is the world size.
	Procs int
	// Clock selects Lamport (scalable, default) or vector (precise) mode.
	Clock ClockMode
	// DualClock enables the paper's §V remedy (sketched there as future
	// work): each rank keeps a second Lamport clock for transmission. The
	// receive clock advances when a wildcard receive is posted (keeping
	// epoch identities); the transmit clock advances only when the
	// receive's Wait/Test commits the match. Sends and collectives issued
	// between post and completion therefore do not propagate the epoch's
	// clock, closing the Fig. 10 omission pattern. Lamport mode only.
	DualClock bool
	// Transport selects the piggyback mechanism (§II-D): Separate (the
	// paper's separate-message scheme, default) or Inband payload packing.
	Transport Transport
	// Decisions guides the run; nil or empty means SELF_RUN everywhere.
	Decisions *Decisions
	// Choices enables the enlarged choice-point space: Waitany/Testany
	// completion indexes and Iprobe found/not-found outcomes are recorded
	// (and replayed) as first-class epochs. Off by default: the choice hooks
	// return at once, record nothing and force nothing, so existing
	// explorations are byte-identical.
	Choices bool
}

// Tool is the per-run DAMPI instrumentation: Algorithm 1 of the paper. One
// Tool instruments one World.Run; create a fresh Tool per replay (or reuse
// one across sequential replays via Reset) and collect its RunTrace after
// each run.
type Tool struct {
	cfg    ToolConfig
	states []*rankState
	// committed is the run's decision epochs in the order they committed:
	// the world runs its ranks one at a time, so appending at commit is the
	// global commit order and Trace has nothing to sort.
	committed []*epoch
}

// NewTool creates the instrumentation for a run.
func NewTool(cfg ToolConfig) *Tool {
	cfg.Decisions = flatOrEmpty(cfg.Decisions)
	return &Tool{cfg: cfg, states: make([]*rankState, cfg.Procs)}
}

// Reset prepares the Tool to instrument another sequential run under new
// decisions, keeping the per-rank state objects (and their scratch buffers,
// epoch freelists and comm maps) so a replay sequence stops allocating tool
// state after the first run. Must not be called while a
// world is running; collect the previous run's Trace first.
func (t *Tool) Reset(decisions *Decisions) {
	t.cfg.Decisions = flatOrEmpty(decisions)
	t.committed = t.committed[:0]
}

// flatOrEmpty returns the flat set a run reads its decisions from: d itself
// when flat, a flat copy of a prefix node (RunContext hands a tool the flat
// set, built in its own scratch), a new empty set for nil.
func flatOrEmpty(d *Decisions) *Decisions {
	switch {
	case d == nil:
		return NewDecisions()
	case d.isNode():
		return d.Clone()
	}
	return d
}

// rankState is one rank's DAMPI module state. Accessed only on the owning
// rank's turn (mirroring the paper's decentralized design).
type rankState struct {
	p     *mpi.Proc
	pb    *piggyback.Rank
	comms map[int]mpi.Comm // live comms, for the unmatched sweep

	lc    clock.Lamport
	lcOut clock.Lamport // dual-clock mode: the clock sends/collectives carry
	dual  bool
	vc    *clock.Vector // nil in Lamport mode

	// decisions is a cursor over the rank's run of the decisions that guide
	// the replay (see forced): those at or above its clock, in LC order.
	decisions []decision

	epochs      []*epoch
	recvPostSeq uint64
	loopDepth   int
	pendingND   int // §V monitor: posted, not-yet-completed wildcard receives

	unsafe     []UnsafeReport
	mismatches []ForcedMismatch

	// Hot-path scratch and freelists, reused across messages and (via
	// Tool.Reset) across runs.
	cvBuf        []uint64    // clockVec result (Lamport modes)
	clockBuf     []uint64    // decoded message clocks (in-band, sweep)
	packBuf      []byte      // in-band AppendPacked output
	epochFree    []*epoch    // retired epochs from previous runs
	recvInfoFree []*recvInfo // retired recvInfos from completed requests
	sendInfoFree []*sendInfo // retired sendInfos from completed requests
}

// epoch is the per-rank record of one wildcard decision point.
type epoch struct {
	rank    int
	lc      uint64
	vcSnap  []uint64 // post-tick vector snapshot (vector mode)
	commID  int
	tag     int
	postSeq uint64
	kind    EpochKind
	guided  bool // a decision forced the epoch, to forced
	inLoop  bool
	forced  int
	chosen  int
	order   uint64 // 1-based position in Tool.committed; 0 = never committed
	alts    []int
	// Per comm-local source: its earliest candidate was evaluated. A bitset
	// inside the epoch for sources 0..63, seenMore beyond.
	seen     uint64
	seenMore []uint64
}

// sawSource records that src's earliest candidate has been evaluated for e
// and reports whether it already had been.
func (e *epoch) sawSource(src int) bool {
	w, bit := &e.seen, uint64(1)<<(src&63)
	if src >= 64 {
		w = &e.seenMore[src>>6-1]
	}
	was := *w&bit != 0
	*w |= bit
	return was
}

// recycle readies st for another run on the same rank of a fresh world,
// keeping allocated storage (maps, slices, freelists, piggyback buffers).
func (st *rankState) recycle() {
	clear(st.comms)
	st.lc.Set(0)
	st.lcOut.Set(0)
	st.vc = nil
	st.dual = false
	st.decisions = nil
	st.epochFree = append(st.epochFree, st.epochs...)
	st.epochs = st.epochs[:0]
	st.recvPostSeq = 0
	st.loopDepth = 0
	st.pendingND = 0
	st.unsafe = st.unsafe[:0]
	st.mismatches = st.mismatches[:0]
}

// forced is GetSrcFromEpoch of Algorithm 1: the source the rank's decisions
// force at clock lc — its clock, or the one above it (a probe's source epoch
// sits above its outcome epoch) — if any. The rank reads its decisions through
// a cursor: its clock never decreases, so a decision below it is passed for
// good. The rank is GUIDED_RUN while decisions remain at or above its clock;
// once its clock passes its guided epoch (its last decision's LC) none does,
// and it is SELF_RUN ("if LCi > guided_epoch then mode <- SELF_RUN"). Epochs
// without a forced decision (e.g. loop regions) stay free.
func (st *rankState) forced(lc uint64) (int, bool) {
	now := st.lc.Value()
	for len(st.decisions) > 0 && st.decisions[0].lc < now {
		st.decisions = st.decisions[1:]
	}
	// At most two steps: lc is now or now+1, and LCs are distinct.
	for _, d := range st.decisions {
		if d.lc >= lc {
			return int(d.src), d.lc == lc
		}
	}
	return 0, false
}

// open records a decision epoch at the rank's clock (RecordEpochData of
// Algorithm 1) and ticks the clock past it (LCi++): an epoch from the freelist
// or a new one, with a cleared seen set sized for the communicator, undecided
// (chosen -1). In vector mode the epoch keeps the post-tick vector, its
// event's clock.
func (st *rankState) open(kind EpochKind, commID, commSize, tag int) *epoch {
	var e *epoch
	if n := len(st.epochFree); n > 0 {
		e = st.epochFree[n-1]
		st.epochFree = st.epochFree[:n-1]
	} else {
		e = new(epoch)
	}
	// Zeroed in place, then filled: one literal naming every field is built
	// on the stack and copied.
	*e = epoch{alts: e.alts[:0], seenMore: e.seenMore[:0]}
	e.rank, e.lc, e.commID, e.tag, e.postSeq = st.p.Rank(), st.lc.Value(), commID, tag, st.recvPostSeq
	e.kind, e.inLoop, e.chosen = kind, st.loopDepth > 0, -1
	e.forced, e.guided = st.forced(e.lc)
	if more := (commSize - 1) >> 6; more > 0 {
		e.seenMore = append(e.seenMore, make([]uint64, more)...)
	}
	st.epochs = append(st.epochs, e)
	st.lc.Tick()
	if st.vc != nil {
		st.vc.Tick()
		e.vcSnap = st.vc.Snapshot()
	}
	return e
}

// decide commits e's decision, chosen: the epoch takes its place in the run's
// commit order, the dual clock's transmit clock catches up with it (§V:
// "synchronized when a Wait/Test is encountered"), and a guided epoch that
// did not get the value its decision forced (noted when it opened, as the
// clock may since have passed it) is a ForcedMismatch.
func (t *Tool) decide(st *rankState, e *epoch, chosen int) {
	e.chosen = chosen
	t.committed = append(t.committed, e)
	e.order = uint64(len(t.committed))
	if st.dual {
		st.lcOut.Merge(e.lc + 1)
	}
	if e.guided && e.forced != chosen {
		st.mismatches = append(st.mismatches, ForcedMismatch{
			Epoch: EpochID{Rank: e.rank, LC: e.lc}, Forced: e.forced, Got: chosen,
		})
	}
}

func (st *rankState) newRecvInfo() *recvInfo {
	if n := len(st.recvInfoFree); n > 0 {
		ri := st.recvInfoFree[n-1]
		st.recvInfoFree = st.recvInfoFree[:n-1]
		*ri = recvInfo{}
		return ri
	}
	return &recvInfo{}
}

func (st *rankState) newSendInfo() *sendInfo {
	if n := len(st.sendInfoFree); n > 0 {
		si := st.sendInfoFree[n-1]
		st.sendInfoFree = st.sendInfoFree[:n-1]
		*si = sendInfo{}
		return si
	}
	return &sendInfo{}
}

// recvInfo is the tool state attached to receive requests.
type recvInfo struct {
	epoch   *epoch       // non-nil iff the receive was posted wildcard
	pbReq   *mpi.Request // posted piggyback receive (nil: deferred wildcard)
	postSeq uint64
}

// sendInfo is the tool state attached to send requests.
type sendInfo struct {
	pbReq *mpi.Request
}

func (t *Tool) state(p *mpi.Proc) *rankState {
	// Fast path: rank-local, no lock needed after Init stores it.
	if st, ok := p.ToolState.(*rankState); ok {
		return st
	}
	panic(fmt.Sprintf("core: rank %d used before Init", p.Rank()))
}

// clockVec returns the clock this rank transmits (piggybacks and
// collectives). In dual-clock mode this is the transmit clock, which lags
// the receive clock across posted-but-uncommitted wildcard epochs.
// The returned slice aliases a per-rank scratch buffer in Lamport modes: it
// is valid until the next clockVec call. Every consumer (piggyback encode,
// in-band pack, collective clock-in) copies or folds it before the rank
// issues another operation.
func (st *rankState) clockVec() []uint64 {
	if st.vc != nil {
		return st.vc.Snapshot()
	}
	if cap(st.cvBuf) < 1 {
		st.cvBuf = make([]uint64, 1)
	}
	buf := st.cvBuf[:1]
	if st.dual {
		buf[0] = st.lcOut.Value()
	} else {
		buf[0] = st.lc.Value()
	}
	return buf
}

func (st *rankState) mergeClock(c []uint64) {
	if len(c) == 0 {
		return
	}
	st.lc.Merge(c[0])
	st.lcOut.Merge(c[0])
	if st.vc != nil {
		st.vc.Merge(c)
	}
}

// late reports whether a message carrying clock mclock is a potential
// alternate match for epoch e: the send must not be causally after the
// epoch's decision event. In Lamport mode the epoch event's clock is
// e.lc+1 (the epoch records the pre-tick value), so the test is
// mclock <= e.lc; in vector mode we compare against the post-tick snapshot.
func (st *rankState) late(e *epoch, mclock []uint64) bool {
	if st.vc != nil {
		return !clock.CausallyAfter(mclock, e.vcSnap)
	}
	if len(mclock) == 0 {
		return false
	}
	return mclock[0] <= e.lc
}

func (t *Tool) abort(p *mpi.Proc, err error) {
	p.Abort(fmt.Errorf("core: DAMPI tool failure on rank %d: %w", p.Rank(), err))
}

// Hooks returns the mpi tool layer implementing Algorithm 1.
func (t *Tool) Hooks() *mpi.Hooks {
	return &mpi.Hooks{
		Init:           t.init,
		PreSend:        t.preSend,
		PostSend:       t.postSend,
		PreRecv:        t.preRecv,
		PostRecv:       t.postRecv,
		Complete:       t.complete,
		PreWaitany:     t.preWaitany,
		PostWaitany:    t.postWaitany,
		PreProbe:       t.preProbe,
		PostProbe:      t.postProbe,
		PreColl:        t.preColl,
		CollClockIn:    t.collClockIn,
		CollClockOut:   t.collClockOut,
		PostCommCreate: t.postCommCreate,
		PostCommFree:   t.postCommFree,
		Pcontrol:       t.pcontrol,
	}
}

func (t *Tool) init(p *mpi.Proc) {
	st := t.states[p.Rank()]
	if st == nil {
		st = &rankState{p: p, pb: piggyback.NewRank(p), comms: make(map[int]mpi.Comm)}
	} else {
		// Reused across runs (Tool.Reset): rebind to the fresh world's proc.
		st.recycle()
		st.p = p
		st.pb.Reset(p)
	}
	st.comms[p.CommWorld().ID()] = p.CommWorld()
	if t.cfg.Clock == VectorClock {
		st.vc = clock.NewVector(t.cfg.Procs, p.Rank())
	} else if t.cfg.DualClock {
		st.dual = true
	}
	// MPI_Init of Algorithm 1: a rank with decisions starts GUIDED_RUN, and
	// its guided epoch is its last decision's LC (see forced).
	st.decisions = t.cfg.Decisions.ofRank(p.Rank())
	p.ToolState = st
	t.states[p.Rank()] = st
}

// --- point-to-point sends ---

func (t *Tool) preSend(p *mpi.Proc, op *mpi.SendOp) {
	st := t.state(p)
	// §V monitor: a send transmits the clock while a wildcard receive is
	// still pending — the omission pattern the single-clock algorithm cannot
	// handle; alert. Dual-clock mode handles it, so no alert there.
	if st.pendingND > 0 && !st.dual {
		st.unsafe = append(st.unsafe, UnsafeReport{
			Rank: p.Rank(), LC: st.lc.Value(),
			Op: fmt.Sprintf("Send(to:%d,tag:%d)", op.Dest, op.Tag), Count: st.pendingND,
		})
	}
	if t.cfg.Transport == Inband {
		// The runtime copies op.Data when the send is posted, so the pack
		// scratch buffer is immediately reusable.
		st.packBuf = piggyback.AppendPacked(st.packBuf[:0], st.clockVec(), op.Data)
		op.Data = st.packBuf
	}
}

func (t *Tool) postSend(p *mpi.Proc, op *mpi.SendOp, req *mpi.Request) {
	st := t.state(p)
	if t.cfg.Transport == Inband {
		req.ToolData = st.newSendInfo() // clock already travelled in the payload
		return
	}
	pbReq, err := st.pb.SendClock(op.Dest, op.Tag, op.Comm, st.clockVec())
	if err != nil {
		t.abort(p, err)
		return
	}
	si := st.newSendInfo()
	si.pbReq = pbReq
	req.ToolData = si
}

// --- point-to-point receives (MPI_Irecv of Algorithm 1) ---

func (t *Tool) preRecv(p *mpi.Proc, op *mpi.RecvOp) {
	st := t.state(p)
	if !op.WasAnySource {
		return
	}
	if src, ok := st.forced(st.lc.Value()); ok {
		op.Src = src
	}
}

func (t *Tool) postRecv(p *mpi.Proc, op *mpi.RecvOp, req *mpi.Request) {
	st := t.state(p)
	st.recvPostSeq++
	info := st.newRecvInfo()
	info.postSeq = st.recvPostSeq
	req.ToolData = info
	if op.WasAnySource {
		// The epoch opens at post; the Wait/Test that completes the receive
		// decides it (complete).
		info.epoch = st.open(RecvEpoch, op.Comm.ID(), op.Comm.Size(), op.Tag)
		st.pendingND++
	}
	if t.cfg.Transport == Separate && op.Src != mpi.AnySource {
		// Deterministic (or determinized) receive: the piggyback receive can
		// be posted immediately, paired by (src, tag) FIFO on the tool context.
		pbReq, err := st.pb.PostRecvClock(op.Src, op.Tag, op.Comm)
		if err != nil {
			t.abort(p, err)
			return
		}
		info.pbReq = pbReq
	}
	// else: deferred piggyback receive at completion (paper §II-D), or the
	// clock arrives inside the payload (in-band transport).
}

// --- completion (MPI_Wait of Algorithm 1) ---

func (t *Tool) complete(p *mpi.Proc, req *mpi.Request, status mpi.Status) {
	st := t.state(p)
	switch info := req.ToolData.(type) {
	case *sendInfo:
		if info.pbReq != nil {
			if err := st.pb.DrainSend(info.pbReq); err != nil {
				t.abort(p, err)
				return
			}
		}
		req.ToolData = nil
		st.sendInfoFree = append(st.sendInfoFree, info)
	case *recvInfo:
		if req.Cancelled() {
			// No message arrived: retire the piggyback receive too and, for
			// wildcard receives, withdraw the epoch (it never committed a
			// match, so the generator has nothing to flip).
			if info.pbReq != nil {
				ok, err := p.PMPI().Cancel(info.pbReq)
				if err != nil {
					t.abort(p, err)
				} else if !ok {
					// The piggyback already arrived (payload raced the
					// cancel); drain it so the clock stream stays paired.
					if _, err := p.PMPI().Wait(info.pbReq); err != nil {
						t.abort(p, err)
					}
				}
			}
			if info.epoch != nil {
				st.pendingND--
			}
			req.ToolData = nil
			st.recvInfoFree = append(st.recvInfoFree, info)
			return
		}
		var mclock []uint64
		var err error
		switch {
		case t.cfg.Transport == Inband:
			var payload []byte
			mclock, payload, err = piggyback.UnpackInto(st.clockBuf[:0], req.Data())
			if err == nil {
				st.clockBuf = mclock
				req.ReplaceData(payload)
				status.Count = len(payload)
			}
		case info.pbReq != nil:
			mclock, err = st.pb.WaitClock(info.pbReq)
		default:
			// Wildcard receive: source now known; fetch its piggyback.
			mclock, err = st.pb.RecvClockFrom(status.Source, status.Tag, req.Comm())
		}
		if err != nil {
			t.abort(p, err)
			return
		}
		if e := info.epoch; e != nil {
			st.pendingND--
			t.decide(st, e, status.Source)
		}
		st.findPotentialMatches(req.Comm().ID(), status, mclock, info.postSeq)
		st.mergeClock(mclock)
		req.ToolData = nil
		st.recvInfoFree = append(st.recvInfoFree, info)
	}
}

// findPotentialMatches is Algorithm 1's late-message analysis: a message on
// commID with the given status and clock is checked against every recorded
// wildcard epoch of this rank. postSeq numbers the receive that took it (a
// message no receive took passes math.MaxUint64). A source's earliest
// candidate decides (non-overtaking, §II-C Fig. 2); a message whose receive
// was posted before the epoch cannot be stolen by it.
func (st *rankState) findPotentialMatches(commID int, status mpi.Status, mclock []uint64, postSeq uint64) {
	for _, e := range st.epochs {
		if !e.kind.MatchKind() {
			continue // completion/outcome epochs carry no match decision
		}
		if e.commID != commID {
			continue
		}
		if e.tag != mpi.AnyTag && e.tag != status.Tag {
			continue
		}
		if postSeq < e.postSeq {
			// Posted-order guard: this message was claimed by a receive
			// posted before the epoch; MPI matching would never give it to
			// the epoch in any execution.
			continue
		}
		// decide has already set the receive's own epoch's chosen to status.Source.
		if e.chosen == status.Source || e.sawSource(status.Source) {
			continue
		}
		if st.late(e, mclock) {
			e.alts = append(e.alts, status.Source)
		}
	}
}

// --- completion choice points (ToolConfig.Choices) ---

// preWaitany determinizes a Waitany/Testany during a guided replay: a forced
// decision at the rank's current clock names the completion index to observe.
func (t *Tool) preWaitany(p *mpi.Proc, op *mpi.WaitanyOp) {
	if !t.cfg.Choices {
		return
	}
	st := t.state(p)
	if idx, ok := st.forced(st.lc.Value()); ok {
		op.ForceIndex = idx
	}
}

// postWaitany opens and decides a completion choice epoch: the chosen index
// plus every other request that had also completed (unconsumed) when the call
// returned — the alternates a replay can force instead. Fires only on positive
// outcomes, so the epoch count (and the rank's clock) stays aligned across
// runs regardless of how many empty Testany polls timing produced.
func (t *Tool) postWaitany(p *mpi.Proc, op *mpi.WaitanyOp, idx int, status mpi.Status) {
	if !t.cfg.Choices {
		return
	}
	st := t.state(p)
	kind := WaitanyEpoch
	if !op.Blocking {
		kind = TestanyEpoch
	}
	// Not a message-match point: no comm, no late-message analysis.
	e := st.open(kind, -1, 0, -1)
	for i, r := range op.Reqs {
		if i != idx && r != nil && r.CompletedPending() {
			e.alts = append(e.alts, i)
		}
	}
	t.decide(st, e, idx)
}

// --- probes ---

func (t *Tool) preProbe(p *mpi.Proc, op *mpi.ProbeOp) {
	st := t.state(p)
	choice := t.cfg.Choices && !op.Blocking
	if !op.WasAnySource && !choice {
		return
	}
	lc := st.lc.Value()
	if choice {
		// Outcome decision at the current clock: a forced 0 suppresses a
		// would-be find (the sound branch — forcing a find that timing did
		// not produce could manufacture a message out of nothing).
		if out, ok := st.forced(lc); ok && out == 0 {
			op.SuppressFound = true
			return
		}
		lc++ // the wildcard source decision sits above the outcome epoch's tick
	}
	if !op.WasAnySource {
		return
	}
	if src, ok := st.forced(lc); ok {
		op.Src = src
	}
}

// postProbe opens and decides a probe's epochs: its Iprobe outcome (with
// Choices), then its wildcard source match. A probe removes no message from
// the queues, so it takes no piggyback receive.
func (t *Tool) postProbe(p *mpi.Proc, op *mpi.ProbeOp, status mpi.Status, found bool) {
	st := t.state(p)
	if t.cfg.Choices && !op.Blocking && found {
		// Iprobe outcome epoch: the poll found a message (suppressed or not).
		// Natural not-found polls record nothing — their count is timing
		// noise, and recording them would misalign (rank, LC) decisions.
		e := st.open(IprobeEpoch, op.Comm.ID(), op.Comm.Size(), op.Tag)
		if op.SuppressFound {
			t.decide(st, e, 0) // forced not-found: pinned, no further branches
			return             // the application saw not-found; no source epoch follows
		}
		e.alts = append(e.alts, 0)
		t.decide(st, e, 1)
	}
	if !op.WasAnySource || !found {
		// Nonblocking probes count only when the runtime reports a message
		// ready (flag=true), as in the paper.
		return
	}
	t.decide(st, st.open(ProbeEpoch, op.Comm.ID(), op.Comm.Size(), op.Tag), status.Source)
}

// --- collectives ---

func (t *Tool) preColl(p *mpi.Proc, op *mpi.CollOp) {
	st := t.state(p)
	if st.pendingND > 0 && !st.dual {
		// §V monitor: a collective propagates the clock while a wildcard
		// receive is pending.
		st.unsafe = append(st.unsafe, UnsafeReport{
			Rank: p.Rank(), LC: st.lc.Value(),
			Op: op.Kind.String(), Count: st.pendingND,
		})
	}
}

func (t *Tool) collClockIn(p *mpi.Proc, op *mpi.CollOp) []uint64 {
	return t.state(p).clockVec()
}

func (t *Tool) collClockOut(p *mpi.Proc, op *mpi.CollOp, c []uint64) {
	t.state(p).mergeClock(c)
}

// --- communicator management ---

func (t *Tool) postCommCreate(p *mpi.Proc, parent, created mpi.Comm) {
	t.state(p).comms[created.ID()] = created
}

func (t *Tool) postCommFree(p *mpi.Proc, c mpi.Comm) {
	delete(t.state(p).comms, c.ID())
}

// --- Pcontrol: loop iteration abstraction ---

func (t *Tool) pcontrol(p *mpi.Proc, level int, arg string) {
	if level != PcontrolLoopLevel {
		return
	}
	st := t.state(p)
	switch arg {
	case LoopBegin:
		st.loopDepth++
	case LoopEnd:
		if st.loopDepth > 0 {
			st.loopDepth--
		}
	}
}

// sweepUnmatched analyzes sends that impinged on a rank but were never
// received (paper Fig. 3: the alternate send "comes in late" and may match
// no receive at all in this run). Their piggyback messages are still queued
// on the communicators' tool contexts, so after the run we probe and receive
// each leftover piggyback and feed it to the late-message analysis. Runs on
// the collector goroutine after World.Run returns, so no rank is racing us.
func (t *Tool) sweepUnmatched(st *rankState) {
	if st.p.World().Failure() != nil {
		return // deadlocked/aborted runs cannot issue further MPI calls
	}
	pm := st.p.PMPI()
	for commID, c := range st.comms {
		// Separate transport: leftover piggybacks queue on the tool context.
		// In-band transport: the clocks sit inside the leftover payloads.
		if t.cfg.Transport == Separate {
			var err error
			if c, err = pm.Tool(c); err != nil {
				continue
			}
		}
		for {
			status, found, err := pm.Iprobe(mpi.AnySource, mpi.AnyTag, c)
			if err != nil || !found {
				break
			}
			data, _, err := pm.Recv(status.Source, status.Tag, c)
			if err != nil {
				break
			}
			var mclock []uint64
			if t.cfg.Transport == Inband {
				mclock, _, err = piggyback.UnpackInto(st.clockBuf[:0], data)
				if err != nil {
					break
				}
			} else {
				mclock = piggyback.DecodeClockInto(st.clockBuf[:0], data)
			}
			st.clockBuf = mclock[:0]
			st.findPotentialMatches(commID, status, mclock, math.MaxUint64)
		}
	}
}

// traceStore is storage a trace can be built in instead of fresh arrays: one
// RunTrace and the backing arrays of its records and alternates, grown to the
// largest run so far and overwritten by the next.
type traceStore struct {
	trace RunTrace
	recs  []EpochRecord
	alts  []int
}

// Trace collects the run's epoch log after World.Run returns, in fresh
// storage the caller may keep. It first sweeps each rank's unmatched
// incoming piggybacks (see sweepUnmatched).
func (t *Tool) Trace() *RunTrace {
	return t.trace(nil)
}

// trace is Trace, building the log in s when s is non-nil: the trace then
// aliases s and is valid only until s is built in again — except its
// Mismatches, which a result carries out of the replay and so are always
// fresh.
func (t *Tool) trace(s *traceStore) *RunTrace {
	for _, st := range t.states {
		if st != nil {
			t.sweepUnmatched(st)
		}
	}
	// A kept trace is allocated as two backing arrays (records, alternates)
	// sliced per epoch, not ~3 objects per epoch.
	var nEpochs, nAlts int
	for _, st := range t.states {
		if st == nil {
			continue
		}
		nEpochs += len(st.epochs)
		for _, e := range st.epochs {
			nAlts += len(e.alts)
		}
	}
	var tr *RunTrace
	var recs []EpochRecord
	var alts []int
	switch {
	case s != nil:
		s.trace = RunTrace{Epochs: slices.Grow(s.trace.Epochs[:0], nEpochs), Unsafe: s.trace.Unsafe[:0]}
		s.recs = slices.Grow(s.recs[:0], nEpochs)[:nEpochs]
		s.alts = slices.Grow(s.alts[:0], nAlts)
		tr, recs, alts = &s.trace, s.recs, s.alts
	case nEpochs > 0:
		tr = &RunTrace{Epochs: make([]*EpochRecord, 0, nEpochs)}
		recs = make([]EpochRecord, nEpochs)
		alts = make([]int, 0, nAlts)
	default:
		// A wildcard-free run keeps Epochs nil, as it serializes ("epochs":null).
		tr = &RunTrace{}
	}
	emit := func(e *epoch) {
		rec := &recs[len(tr.Epochs)]
		*rec = EpochRecord{
			Rank:   e.rank,
			LC:     e.lc,
			CommID: e.commID,
			Tag:    e.tag,
			Kind:   e.kind,
			Chosen: e.chosen,
			Guided: e.guided,
			InLoop: e.inLoop,
			Order:  e.order,
		}
		first := len(alts)
		for _, a := range e.alts {
			if a != e.chosen {
				alts = append(alts, a)
			}
		}
		if len(alts) > first {
			// Capacity-clipped: appending to one epoch's alternates must
			// not overwrite its neighbour's.
			rec.Alternates = alts[first:len(alts):len(alts)]
		}
		tr.Epochs = append(tr.Epochs, rec)
	}
	// Committed epochs in commit order, then the never-completed ones
	// (order 0, chosen -1) by (rank, lc).
	for _, e := range t.committed {
		emit(e)
	}
	for _, st := range t.states {
		if st == nil {
			continue
		}
		if st.lc.Value() > tr.MaxLC {
			tr.MaxLC = st.lc.Value()
		}
		tr.Unsafe = append(tr.Unsafe, st.unsafe...)
		tr.Mismatches = append(tr.Mismatches, st.mismatches...)
		for _, e := range st.epochs {
			if e.order == 0 {
				emit(e)
			}
		}
	}
	return tr
}
