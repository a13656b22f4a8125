package mpi

import "fmt"

// Proc is one rank's handle into the world: the MPI API surface an
// application programs against. All methods must be called from the rank's
// own goroutine (MPI's single-threaded-rank model). Every method runs the
// tool hooks around the PMPI-level implementation.
type Proc struct {
	world *World
	// rank is an int32 so that it packs with the flags after it: a Proc
	// must fit its 352-byte allocation class, which the scratch descriptors
	// below fill, or a cold world pays for the difference
	// (TestColdNativeWorldPaysNothingForTools).
	rank      int32
	returned  bool // the program returned (did not panic or Goexit)
	finished  bool
	finalized bool

	// yield hands the turn back to the scheduler: the yield of the coroutine
	// the rank runs on this world (see runner). False means the coroutine is
	// being stopped.
	yield func(struct{}) bool

	park parking // what the rank is parked on; kind parkNone while it runs
	err  error   // what the program returned

	// pool is this rank's slot in the world's request freelists.
	pool *rankPool

	// Scratch descriptors handed to hooks for the duration of one call (see
	// the Hooks contract), so a hooked call allocates no descriptor.
	sendOp    SendOp
	recvOp    RecvOp
	probeOp   ProbeOp
	waitanyOp WaitanyOp
	waitReq   [1]*Request

	// ToolState is scratch space for the tool layer's per-rank module
	// (DAMPI hangs its per-rank state here). The runtime never touches it.
	ToolState any
}

// parking says what a parked rank waits for. The blocked request, request
// set, probe pattern or collective instance is both the wake-up condition and
// the deadlock report's description, so parking allocates nothing.
type parking struct {
	kind     parkKind
	released bool // parkTool: World.Unpark was called

	req  *Request    // parkWait
	reqs []*Request  // parkWaitany
	src  int         // parkProbe
	tag  int         // parkProbe
	comm Comm        // parkProbe, parkColl
	coll *collective // parkColl
	why  string      // parkTool: the tool's description of the hold
}

type parkKind uint8

const (
	parkNone parkKind = iota
	parkWait
	parkWaitany
	parkProbe
	parkColl
	parkTool
)

// satisfied reports whether what the rank waits for has happened.
func (k *parking) satisfied() bool {
	switch k.kind {
	case parkWait:
		return k.req.done
	case parkWaitany:
		return firstCompleted(k.reqs) >= 0
	case parkProbe:
		_, ok := k.comm.info.findUnexpectedStatus(k.comm.localRank, k.src, k.tag)
		return ok
	case parkColl:
		return k.coll.done
	case parkTool:
		return k.released
	}
	return true
}

// String describes the blocked call for a deadlock report.
func (k *parking) String() string {
	switch k.kind {
	case parkWait:
		return fmt.Sprintf("Wait(%s peer=%d tag=%d %s)", k.req.kind, k.req.peer, k.req.tag, k.req.comm)
	case parkWaitany:
		return fmt.Sprintf("Waitany(%d reqs)", len(k.reqs))
	case parkProbe:
		return fmt.Sprintf("Probe(src=%s, tag=%s, %s)", rankStr(k.src), tagStr(k.tag), k.comm)
	case parkColl:
		return fmt.Sprintf("%s(%s) [%d/%d arrived]", k.coll.kind, k.comm, k.coll.arrived, k.coll.n)
	case parkTool:
		return k.why
	}
	return "running"
}

// Park parks the calling rank in the world scheduler until a tool layer calls
// World.Unpark for it or the world fails (the failure is returned). It is the
// one way, besides PMPI, a hook may wait for another rank; why describes the
// hold in deadlock reports. See Hooks.Idle for who gets to release it.
func (p *Proc) Park(why string) error {
	p.park = parking{kind: parkTool, why: why}
	return p.world.block(p)
}

// Rank returns this process's world rank.
func (p *Proc) Rank() int { return int(p.rank) }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// CommWorld returns this rank's MPI_COMM_WORLD handle.
func (p *Proc) CommWorld() Comm {
	return Comm{info: p.world.worldComm, localRank: p.Rank()}
}

// PMPI returns the unhooked operation surface for tool layers.
func (p *Proc) PMPI() PMPI { return PMPI{p: p} }

// hooks returns the world's tool layer: noHooks for a world without one, so a
// hooked call tests only the hook it runs.
func (p *Proc) hooks() *Hooks { return p.world.hooks }

// Abort terminates the whole world with the given error; all blocked and
// future MPI calls fail.
func (p *Proc) Abort(err error) { p.world.AbortWith(err) }

// Pcontrol forwards an MPI_Pcontrol call to the tool layer. DAMPI's
// loop-iteration abstraction uses level 1 with arg "loop:begin"/"loop:end".
func (p *Proc) Pcontrol(level int, arg string) {
	if h := p.hooks(); h.Pcontrol != nil {
		h.Pcontrol(p, level, arg)
	}
}

// --- Point-to-point ---

// Isend posts a nonblocking standard (eager) send.
func (p *Proc) Isend(dest, tag int, data []byte, c Comm) (*Request, error) {
	return escape(p.isend(dest, tag, data, c, false))
}

// Issend posts a nonblocking synchronous send.
func (p *Proc) Issend(dest, tag int, data []byte, c Comm) (*Request, error) {
	return escape(p.isend(dest, tag, data, c, true))
}

// escape marks a request as handed to the application, which may hold it
// indefinitely: Free will never recycle it, and RequestLeaks reports it
// unless a Wait/Test consumes it.
func escape(req *Request, err error) (*Request, error) {
	if req != nil {
		req.escaped = true
		req.proc.pool.escape(req)
	}
	return req, err
}

// isend is the hooked send path shared by the nonblocking calls (whose
// request escapes to the application) and the blocking ones (whose request
// never does, and is freed once waited on).
func (p *Proc) isend(dest, tag int, data []byte, c Comm, sync bool) (*Request, error) {
	h := p.hooks()
	op := &p.sendOp
	*op = SendOp{Dest: dest, Tag: tag, Data: data, Comm: c, Sync: sync}
	if h.PreSend != nil {
		h.PreSend(p, op)
	}
	var req *Request
	var err error
	if op.Sync {
		req, err = p.PMPI().Issend(op.Dest, op.Tag, op.Data, op.Comm)
	} else {
		req, err = p.PMPI().Isend(op.Dest, op.Tag, op.Data, op.Comm)
	}
	if err != nil {
		return nil, err
	}
	p.world.ops.SendRecv++
	if h.PostSend != nil {
		h.PostSend(p, op, req)
	}
	return req, nil
}

// waitInternal completes the implicit wait inside a blocking operation: the
// Complete hook still fires (tools must observe every completion), but
// PreWait does not — a blocking MPI_Send/MPI_Recv is a single operation, not
// a send plus a wait, and OpCounts counts it as such.
func (p *Proc) waitInternal(req *Request) (Status, error) {
	already := req.consumed
	st, err := p.PMPI().Wait(req)
	if err != nil {
		return st, err
	}
	return p.observe(req, st, already), nil
}

// Send is a blocking standard send (eager-buffered: returns once the message
// is in flight).
func (p *Proc) Send(dest, tag int, data []byte, c Comm) error {
	req, err := p.isend(dest, tag, data, c, false)
	if err != nil {
		return err
	}
	_, err = p.waitInternal(req)
	req.Free()
	return err
}

// Ssend is a blocking synchronous send: returns only when the matching
// receive has been posted.
func (p *Proc) Ssend(dest, tag int, data []byte, c Comm) error {
	req, err := p.isend(dest, tag, data, c, true)
	if err != nil {
		return err
	}
	_, err = p.waitInternal(req)
	req.Free()
	return err
}

// Irecv posts a nonblocking receive; src may be AnySource, tag may be AnyTag.
func (p *Proc) Irecv(src, tag int, c Comm) (*Request, error) {
	return escape(p.irecv(src, tag, c))
}

// irecv is the hooked receive path shared by Irecv and Recv (see isend).
func (p *Proc) irecv(src, tag int, c Comm) (*Request, error) {
	h := p.hooks()
	op := &p.recvOp
	*op = RecvOp{Src: src, Tag: tag, Comm: c, WasAnySource: src == AnySource}
	if h.PreRecv != nil {
		h.PreRecv(p, op)
	}
	req, err := p.PMPI().Irecv(op.Src, op.Tag, op.Comm)
	if err != nil {
		return nil, err
	}
	p.world.ops.SendRecv++
	if h.PostRecv != nil {
		h.PostRecv(p, op, req)
	}
	return req, nil
}

// Recv is a blocking receive; returns the payload and its status.
func (p *Proc) Recv(src, tag int, c Comm) ([]byte, Status, error) {
	req, err := p.irecv(src, tag, c)
	if err != nil {
		return nil, Status{}, err
	}
	st, err := p.waitInternal(req)
	if err != nil {
		return nil, Status{}, err
	}
	data := req.Data()
	req.Free()
	return data, st, nil
}

// --- Completion ---

// observe fires the Complete hook for a completion the call just consumed —
// once per request: not when the request had been consumed before the call
// (already) — and returns the request's status. Tool layers may rewrite the
// payload (Request.ReplaceData) during the Complete hook, so the status is
// the request's current one.
func (p *Proc) observe(req *Request, st Status, already bool) Status {
	if h := p.hooks(); !already && h.Complete != nil {
		h.Complete(p, req, st)
	}
	return req.Status()
}

// preWait counts a Wait or Test on req and runs the PreWait hook.
func (p *Proc) preWait(req *Request) {
	p.world.ops.Wait++
	if h := p.hooks(); h.PreWait != nil {
		p.waitReq[0] = req
		h.PreWait(p, p.waitReq[:])
	}
}

// Wait blocks until req completes and consumes the completion.
func (p *Proc) Wait(req *Request) (Status, error) {
	p.preWait(req)
	return p.waitInternal(req)
}

// Test checks req without blocking; a true flag consumes the completion.
func (p *Proc) Test(req *Request) (Status, bool, error) {
	p.preWait(req)
	already := req.consumed
	st, ok, err := p.PMPI().Test(req)
	if err != nil || !ok {
		return st, ok, err
	}
	return p.observe(req, st, already), true, nil
}

// Waitall waits for all requests, returning their statuses in order.
func (p *Proc) Waitall(reqs []*Request) ([]Status, error) {
	sts := make([]Status, len(reqs))
	for i, r := range reqs {
		if r == nil {
			continue
		}
		st, err := p.Wait(r)
		if err != nil {
			return nil, err
		}
		sts[i] = st
	}
	return sts, nil
}

// Waitany blocks until one unconsumed request completes; returns its index.
// With no unconsumed request in reqs — none, or all nil or consumed — it
// returns at once with index -1 (MPI_UNDEFINED).
func (p *Proc) Waitany(reqs []*Request) (int, Status, error) {
	idx, st, _, err := p.waitany(reqs, true)
	return idx, st, err
}

// waitany is the hooked body of Waitany (blocking) and Testany: it brackets
// the completion choice with PreWaitany and, for a positive outcome, with
// PostWaitany after the consumed request's Complete hook.
func (p *Proc) waitany(reqs []*Request, blocking bool) (int, Status, bool, error) {
	p.world.ops.Wait++
	h := p.hooks()
	if h.PreWait != nil {
		h.PreWait(p, reqs)
	}
	op := &p.waitanyOp
	*op = WaitanyOp{Reqs: reqs, Blocking: blocking, ForceIndex: -1}
	if h.PreWaitany != nil {
		h.PreWaitany(p, op)
	}
	idx, ok := op.ForceIndex, true
	var st Status
	var err error
	switch {
	case idx >= 0 && idx < len(reqs) && reqs[idx] != nil && !reqs[idx].consumed:
		// Forced completion (guided replay): wait on that specific request.
		// The force is only ever derived from a recorded run in which this
		// request had already completed at this point, so the wait
		// terminates in any execution that reproduced the prefix.
		st, err = p.PMPI().Wait(reqs[idx])
	case blocking:
		idx, st, err = p.PMPI().Waitany(reqs)
		ok = idx >= 0
	default:
		idx, st, ok, err = p.PMPI().Testany(reqs)
	}
	if err != nil || !ok {
		return -1, Status{}, false, err
	}
	st = p.observe(reqs[idx], st, false)
	if h.PostWaitany != nil {
		h.PostWaitany(p, op, idx, st)
	}
	return idx, st, true, nil
}

// Testall reports whether all requests have completed; if so it consumes
// them all and returns their statuses.
func (p *Proc) Testall(reqs []*Request) ([]Status, bool, error) {
	for _, r := range reqs {
		if r != nil && !r.done {
			return nil, false, p.world.poll(p)
		}
	}
	sts, err := p.Waitall(reqs) // all done: consumes without blocking
	return sts, err == nil, err
}

// --- Probes ---

// Probe blocks until a matching message is available and returns its status
// without receiving it.
func (p *Proc) Probe(src, tag int, c Comm) (Status, error) {
	st, _, err := p.probe(src, tag, c, true)
	return st, err
}

// Iprobe checks for a matching message without blocking.
func (p *Proc) Iprobe(src, tag int, c Comm) (Status, bool, error) {
	return p.probe(src, tag, c, false)
}

// probe is the hooked body of Probe (blocking) and Iprobe.
func (p *Proc) probe(src, tag int, c Comm, blocking bool) (Status, bool, error) {
	h := p.hooks()
	op := &p.probeOp
	*op = ProbeOp{Src: src, Tag: tag, Comm: c, Blocking: blocking, WasAnySource: src == AnySource}
	if h.PreProbe != nil {
		h.PreProbe(p, op)
	}
	var st Status
	var err error
	found := true
	if blocking {
		st, err = p.PMPI().Probe(op.Src, op.Tag, op.Comm)
	} else {
		st, found, err = p.PMPI().Iprobe(op.Src, op.Tag, op.Comm)
	}
	if err != nil {
		return st, false, err
	}
	p.world.ops.SendRecv++
	if h.PostProbe != nil {
		// The tool observes the real outcome, also when its PreProbe forced
		// the application's (see below), so it can record the decision.
		h.PostProbe(p, op, st, found)
	}
	if found && op.SuppressFound && !blocking {
		// A PreProbe hook forced this poll's not-found outcome (guided replay
		// of an Iprobe choice point): the message stays queued and the
		// application sees nothing.
		return Status{}, false, nil
	}
	return st, found, nil
}
