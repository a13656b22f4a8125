package mpi

import "fmt"

// Proc is one rank's handle into the world: the MPI API surface an
// application programs against. All methods must be called from the rank's
// own goroutine (MPI's single-threaded-rank model). Every method runs the
// tool hooks around the PMPI-level implementation.
type Proc struct {
	world *World
	rank  int
	pmpi  PMPI

	// yield hands the turn back to the scheduler: the yield of the coroutine
	// the rank runs on this world (see runner). False means the coroutine is
	// being stopped.
	yield func(struct{}) bool

	park      parking // what the rank is parked on; kind parkNone while it runs
	err       error   // what the program returned
	finished  bool
	finalized bool

	// pool is this rank's slot in the world's request freelists.
	pool *rankPool

	// Scratch descriptors handed to hooks for the duration of one call (see
	// the Hooks contract), so a hooked call allocates no descriptor.
	sendOp  SendOp
	recvOp  RecvOp
	probeOp ProbeOp
	waitReq [1]*Request

	// ToolState is scratch space for the tool layer's per-rank module
	// (DAMPI hangs its per-rank state here). The runtime never touches it.
	ToolState any
}

// parking says what a parked rank waits for. The blocked request, request
// set, probe pattern or collective instance is both the wake-up condition and
// the deadlock report's description, so parking allocates nothing.
type parking struct {
	kind parkKind
	req  *Request    // parkWait
	reqs []*Request  // parkWaitany
	src  int         // parkProbe
	tag  int         // parkProbe
	comm Comm        // parkProbe, parkColl
	coll *collective // parkColl
	why  string      // parkTool: the tool's description of the hold

	released bool // parkTool: World.Unpark was called
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
func (p *Proc) Rank() int { return p.rank }

// Size returns the world size.
func (p *Proc) Size() int { return p.world.size }

// World returns the owning world.
func (p *Proc) World() *World { return p.world }

// CommWorld returns this rank's MPI_COMM_WORLD handle.
func (p *Proc) CommWorld() Comm {
	return Comm{info: p.world.worldComm, localRank: p.rank}
}

// PMPI returns the unhooked operation surface for tool layers.
func (p *Proc) PMPI() PMPI { return p.pmpi }

func (p *Proc) hooks() *Hooks { return p.world.hooks }

// Abort terminates the whole world with the given error; all blocked and
// future MPI calls fail.
func (p *Proc) Abort(err error) { p.world.AbortWith(err) }

// Pcontrol forwards an MPI_Pcontrol call to the tool layer. DAMPI's
// loop-iteration abstraction uses level 1 with arg "loop:begin"/"loop:end".
func (p *Proc) Pcontrol(level int, arg string) {
	if h := p.hooks(); h != nil && h.Pcontrol != nil {
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
// indefinitely: Free will never recycle it.
func escape(req *Request, err error) (*Request, error) {
	if req != nil {
		req.escaped = true
	}
	return req, err
}

// isend is the hooked send path shared by the nonblocking calls (whose
// request escapes to the application) and the blocking ones (whose request
// never does, and is freed once waited on).
func (p *Proc) isend(dest, tag int, data []byte, c Comm, sync bool) (*Request, error) {
	h := p.hooks()
	if h == nil || (h.PreSend == nil && h.PostSend == nil) {
		// No tool observing sends: skip the op-descriptor allocation.
		if sync {
			return p.pmpi.Issend(dest, tag, data, c)
		}
		return p.pmpi.Isend(dest, tag, data, c)
	}
	op := &p.sendOp
	*op = SendOp{Dest: dest, Tag: tag, Data: data, Comm: c, Sync: sync}
	if h.PreSend != nil {
		h.PreSend(p, op)
	}
	var req *Request
	var err error
	if op.Sync {
		req, err = p.pmpi.Issend(op.Dest, op.Tag, op.Data, op.Comm)
	} else {
		req, err = p.pmpi.Isend(op.Dest, op.Tag, op.Data, op.Comm)
	}
	if err != nil {
		return nil, err
	}
	if h.PostSend != nil {
		h.PostSend(p, op, req)
	}
	return req, nil
}

// waitInternal completes the implicit wait inside a blocking operation: the
// Complete hook still fires (tools must observe every completion), but
// PreWait does not — a blocking MPI_Send/MPI_Recv is a single operation, not
// a send plus a wait, and op-statistics tools count it as such.
func (p *Proc) waitInternal(req *Request) (Status, error) {
	already := req.consumed
	st, err := p.pmpi.Wait(req)
	if err != nil {
		return st, err
	}
	if !already {
		p.observeCompletion(req, st)
	}
	// Tool layers may rewrite the payload (Request.ReplaceData) during the
	// Complete hook; return the request's current status.
	return req.Status(), nil
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
	if h == nil || (h.PreRecv == nil && h.PostRecv == nil) {
		return p.pmpi.Irecv(src, tag, c)
	}
	op := &p.recvOp
	*op = RecvOp{Src: src, Tag: tag, Comm: c, WasAnySource: src == AnySource}
	if h.PreRecv != nil {
		h.PreRecv(p, op)
	}
	req, err := p.pmpi.Irecv(op.Src, op.Tag, op.Comm)
	if err != nil {
		return nil, err
	}
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

// observeCompletion fires the Complete hook once per request.
func (p *Proc) observeCompletion(req *Request, st Status) {
	h := p.hooks()
	if h != nil && h.Complete != nil {
		h.Complete(p, req, st)
	}
}

// Wait blocks until req completes and consumes the completion.
func (p *Proc) Wait(req *Request) (Status, error) {
	h := p.hooks()
	if h != nil && h.PreWait != nil {
		p.waitReq[0] = req
		h.PreWait(p, p.waitReq[:])
	}
	already := req.consumed
	st, err := p.pmpi.Wait(req)
	if err != nil {
		return st, err
	}
	if !already {
		p.observeCompletion(req, st)
	}
	return req.Status(), nil
}

// Test checks req without blocking; a true flag consumes the completion.
func (p *Proc) Test(req *Request) (Status, bool, error) {
	h := p.hooks()
	if h != nil && h.PreWait != nil {
		p.waitReq[0] = req
		h.PreWait(p, p.waitReq[:])
	}
	already := req.consumed
	st, ok, err := p.pmpi.Test(req)
	if err != nil || !ok {
		return st, ok, err
	}
	if !already {
		p.observeCompletion(req, st)
	}
	return req.Status(), true, nil
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
func (p *Proc) Waitany(reqs []*Request) (int, Status, error) {
	h := p.hooks()
	if h != nil && h.PreWait != nil {
		h.PreWait(p, reqs)
	}
	if h == nil || (h.PreWaitany == nil && h.PostWaitany == nil) {
		idx, st, err := p.pmpi.Waitany(reqs)
		if err != nil {
			return idx, st, err
		}
		p.observeCompletion(reqs[idx], st)
		return idx, reqs[idx].Status(), nil
	}
	op := &WaitanyOp{Reqs: reqs, Blocking: true, ForceIndex: -1}
	if h.PreWaitany != nil {
		h.PreWaitany(p, op)
	}
	var idx int
	var st Status
	var err error
	if f := op.ForceIndex; f >= 0 && f < len(reqs) && reqs[f] != nil && !reqs[f].consumed {
		// Forced completion: wait on that specific request. The force is only
		// ever derived from a recorded run in which this request had already
		// completed at this point, so the wait terminates in any execution
		// that reproduced the prefix.
		st, err = p.pmpi.Wait(reqs[f])
		idx = f
	} else {
		idx, st, err = p.pmpi.Waitany(reqs)
	}
	if err != nil {
		return -1, Status{}, err
	}
	p.observeCompletion(reqs[idx], st)
	if h.PostWaitany != nil {
		h.PostWaitany(p, op, idx, reqs[idx].Status())
	}
	return idx, reqs[idx].Status(), nil
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
	h := p.hooks()
	if h == nil || (h.PreProbe == nil && h.PostProbe == nil) {
		return p.pmpi.Probe(src, tag, c)
	}
	op := &p.probeOp
	*op = ProbeOp{Src: src, Tag: tag, Comm: c, Blocking: true, WasAnySource: src == AnySource}
	if h.PreProbe != nil {
		h.PreProbe(p, op)
	}
	st, err := p.pmpi.Probe(op.Src, op.Tag, op.Comm)
	if err != nil {
		return st, err
	}
	if h.PostProbe != nil {
		h.PostProbe(p, op, st, true)
	}
	return st, nil
}

// Iprobe checks for a matching message without blocking.
func (p *Proc) Iprobe(src, tag int, c Comm) (Status, bool, error) {
	h := p.hooks()
	if h == nil || (h.PreProbe == nil && h.PostProbe == nil) {
		return p.pmpi.Iprobe(src, tag, c)
	}
	op := &p.probeOp
	*op = ProbeOp{Src: src, Tag: tag, Comm: c, WasAnySource: src == AnySource}
	if h.PreProbe != nil {
		h.PreProbe(p, op)
	}
	st, found, err := p.pmpi.Iprobe(op.Src, op.Tag, op.Comm)
	if err != nil {
		return st, found, err
	}
	if found && op.SuppressFound {
		// A PreProbe hook forced this poll's not-found outcome (guided replay
		// of an Iprobe choice point): the message stays queued, the
		// application sees nothing, and the tool still observes the real
		// outcome so it can record the forced decision.
		if h.PostProbe != nil {
			h.PostProbe(p, op, st, true)
		}
		return Status{}, false, nil
	}
	if h.PostProbe != nil {
		h.PostProbe(p, op, st, found)
	}
	return st, found, nil
}
