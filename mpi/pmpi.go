package mpi

import (
	"fmt"
	"slices"
)

// PMPI exposes the raw, unhooked runtime operations — the analogue of the
// PMPI_* entry points. Tool layers use it to issue their own traffic (e.g.
// piggyback messages) without re-entering the hooks.
//
// A call runs on its rank's turn (see World) and gives the turn up only where
// it parks (Wait, Waitany, Probe, a collective not yet complete) or polls and
// finds nothing (Test, Iprobe): between two such points a rank's MPI calls
// are atomic with respect to every other rank.
type PMPI struct {
	p *Proc
}

func (m PMPI) checkActive(op string) error {
	if m.p.finalized {
		return ErrFinalized
	}
	return nil
}

// Isend posts a nonblocking standard-mode (eager) send: the request is
// complete immediately; the message is matched or queued at the destination.
func (m PMPI) Isend(dest, tag int, data []byte, c Comm) (*Request, error) {
	return m.isend(dest, tag, data, c, false)
}

// Issend posts a nonblocking synchronous send: the request completes only
// when a matching receive is posted.
func (m PMPI) Issend(dest, tag int, data []byte, c Comm) (*Request, error) {
	return m.isend(dest, tag, data, c, true)
}

func (m PMPI) isend(dest, tag int, data []byte, c Comm, sync bool) (*Request, error) {
	p := m.p
	if err := m.checkActive("Isend"); err != nil {
		return nil, err
	}
	w := p.world
	if w.failure != nil {
		return nil, w.failure
	}
	if !c.Valid() {
		return nil, &UsageError{Rank: p.Rank(), Op: "Isend", Msg: "invalid communicator"}
	}
	if err := c.checkLive(p, "Isend"); err != nil {
		return nil, err
	}
	if err := c.checkPeer(p, "Isend", dest, false); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, &UsageError{Rank: p.Rank(), Op: "Isend", Msg: fmt.Sprintf("negative tag %d", tag)}
	}
	req := p.newRequest()
	w.nextReq++
	req.id = w.nextReq
	req.kind = KindSend
	req.proc = p
	req.comm = c
	req.peer = dest
	req.tag = tag
	buf := append(w.pools.getBuf(len(data)), data...)
	req.data = buf
	env := w.pools.getEnv()
	env.src = c.localRank
	env.tag = tag
	env.data = buf
	w.sendSeq++
	env.seq = w.sendSeq
	if sync {
		env.sreq = req
	} else {
		req.status = Status{Source: c.localRank, Tag: tag, Count: len(buf)}
		req.done = true
	}
	w.deliver(c.info, dest, env)
	return req, nil
}

// deliver matches env against the posted receives of (ci, dest) or queues it
// as unexpected.
func (w *World) deliver(ci *commInfo, dest int, env *envelope) {
	mb := &ci.boxes[dest]
	for i, preq := range mb.posted {
		if preq.matchesEnv(env) {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			w.match(preq, env)
			return
		}
	}
	mb.unexpected = append(mb.unexpected, env)
	// A blocked probe on this rank may now be satisfiable.
	if dst := w.procs[ci.members[dest]]; dst.park.kind == parkProbe {
		w.setReady(dst)
	}
}

// match completes receive r with env — and, for a synchronous send, the
// sender's request — wakes whoever waits for either, and recycles env.
func (w *World) match(r *Request, env *envelope) {
	r.data = env.data
	r.status = Status{Source: env.src, Tag: env.tag, Count: len(env.data)}
	r.done = true
	w.completed(r)
	if sreq := env.sreq; sreq != nil {
		sreq.status = r.status
		sreq.done = true
		w.completed(sreq)
	}
	w.pools.putEnv(env)
}

// Irecv posts a nonblocking receive. src may be AnySource; tag may be AnyTag.
func (m PMPI) Irecv(src, tag int, c Comm) (*Request, error) {
	p := m.p
	if err := m.checkActive("Irecv"); err != nil {
		return nil, err
	}
	w := p.world
	if w.failure != nil {
		return nil, w.failure
	}
	if !c.Valid() {
		return nil, &UsageError{Rank: p.Rank(), Op: "Irecv", Msg: "invalid communicator"}
	}
	if err := c.checkLive(p, "Irecv"); err != nil {
		return nil, err
	}
	if err := c.checkPeer(p, "Irecv", src, true); err != nil {
		return nil, err
	}
	req := p.newRequest()
	w.nextReq++
	req.id = w.nextReq
	req.kind = KindRecv
	req.proc = p
	req.comm = c
	req.peer = src
	req.tag = tag
	mb := &c.info.boxes[c.localRank]
	for i, env := range mb.unexpected {
		if req.matchesEnv(env) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			w.match(req, env)
			return req, nil
		}
	}
	mb.posted = append(mb.posted, req)
	return req, nil
}

// Wait blocks until the request completes and consumes the completion.
// Waiting on an already-consumed request returns its cached status. Only an
// uncompleted request parks the rank.
func (m PMPI) Wait(req *Request) (Status, error) {
	p := m.p
	if !req.consumed && !req.done {
		p.park = parking{kind: parkWait, req: req}
		if err := p.world.block(p); err != nil {
			return Status{}, err
		}
	}
	req.consumed = true
	return req.status, nil
}

// Test checks the request without blocking; on completion it consumes it.
func (m PMPI) Test(req *Request) (Status, bool, error) {
	w := m.p.world
	if w.failure != nil {
		return Status{}, false, w.failure
	}
	if !req.consumed && !req.done {
		return Status{}, false, w.poll(m.p)
	}
	req.consumed = true
	return req.status, true, nil
}

// firstCompleted returns the index of the first completed, unconsumed
// request in reqs, or -1.
func firstCompleted(reqs []*Request) int {
	for i, r := range reqs {
		if r != nil && r.CompletedPending() {
			return i
		}
	}
	return -1
}

// Waitany blocks until at least one unconsumed request in reqs completes,
// consumes it, and returns its index and status. With no unconsumed request
// in reqs it returns at once with index -1 (MPI_UNDEFINED).
func (m PMPI) Waitany(reqs []*Request) (int, Status, error) {
	p := m.p
	idx := firstCompleted(reqs)
	if idx < 0 {
		if !slices.ContainsFunc(reqs, func(r *Request) bool { return r != nil && !r.consumed }) {
			return -1, Status{}, nil
		}
		p.park = parking{kind: parkWaitany, reqs: reqs}
		if err := p.world.block(p); err != nil {
			return -1, Status{}, err
		}
		idx = firstCompleted(reqs)
	}
	reqs[idx].consumed = true
	return idx, reqs[idx].status, nil
}

// Testany checks for a completed, unconsumed request without blocking; on
// success it consumes it and returns its index.
func (m PMPI) Testany(reqs []*Request) (int, Status, bool, error) {
	idx := firstCompleted(reqs)
	if idx < 0 {
		return -1, Status{}, false, m.p.world.poll(m.p)
	}
	reqs[idx].consumed = true
	return idx, reqs[idx].status, true, nil
}

// Probe blocks until a message matching (src, tag) is available on c and
// returns its status without removing it.
func (m PMPI) Probe(src, tag int, c Comm) (Status, error) {
	p := m.p
	w := p.world
	if w.failure != nil {
		return Status{}, w.failure
	}
	if err := c.checkLive(p, "Probe"); err != nil {
		return Status{}, err
	}
	if err := c.checkPeer(p, "Probe", src, true); err != nil {
		return Status{}, err
	}
	st, ok := c.info.findUnexpectedStatus(c.localRank, src, tag)
	if !ok {
		p.park = parking{kind: parkProbe, src: src, tag: tag, comm: c}
		if err := w.block(p); err != nil {
			return Status{}, err
		}
		st, _ = c.info.findUnexpectedStatus(c.localRank, src, tag)
	}
	return st, nil
}

// Iprobe checks for a matching message without blocking.
func (m PMPI) Iprobe(src, tag int, c Comm) (Status, bool, error) {
	p := m.p
	w := p.world
	if w.failure != nil {
		return Status{}, false, w.failure
	}
	if err := c.checkLive(p, "Iprobe"); err != nil {
		return Status{}, false, err
	}
	if err := c.checkPeer(p, "Iprobe", src, true); err != nil {
		return Status{}, false, err
	}
	st, ok := c.info.findUnexpectedStatus(c.localRank, src, tag)
	if !ok {
		return st, false, w.poll(p)
	}
	return st, true, nil
}

// findUnexpectedStatus returns the status of the earliest unexpected envelope
// at dest matching (src, tag).
func (ci *commInfo) findUnexpectedStatus(dest, src, tag int) (Status, bool) {
	for _, env := range ci.boxes[dest].unexpected {
		if (src == AnySource || src == env.src) && (tag == AnyTag || tag == env.tag) {
			return Status{Source: env.src, Tag: env.tag, Count: len(env.data)}, true
		}
	}
	return Status{}, false
}

// Cancel removes a posted, unmatched receive from its matching queue and
// completes it as cancelled. Returns false if the request already matched
// or is not a receive: a request absent from the posted queue has completed.
func (m PMPI) Cancel(req *Request) (bool, error) {
	if req.kind != KindRecv {
		return false, nil
	}
	mb := &req.comm.info.boxes[req.comm.localRank]
	for i, posted := range mb.posted {
		if posted == req {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			req.cancelled = true
			req.status = Status{Source: AnySource, Tag: AnyTag, Count: 0}
			req.done = true
			return true, nil
		}
	}
	if req.done {
		return false, nil
	}
	return false, fmt.Errorf("mpi: Cancel: request neither posted nor done: %v", req)
}

// Send is a blocking standard-mode send (eager: completes immediately).
func (m PMPI) Send(dest, tag int, data []byte, c Comm) error {
	req, err := m.Isend(dest, tag, data, c)
	if err != nil {
		return err
	}
	_, err = m.Wait(req)
	req.Free()
	return err
}

// Recv is a blocking receive.
func (m PMPI) Recv(src, tag int, c Comm) ([]byte, Status, error) {
	req, err := m.Irecv(src, tag, c)
	if err != nil {
		return nil, Status{}, err
	}
	st, err := m.Wait(req)
	if err != nil {
		return nil, Status{}, err
	}
	data := req.data
	req.Free()
	return data, st, nil
}

func rankStr(r int) string {
	if r == AnySource {
		return "*"
	}
	return fmt.Sprintf("%d", r)
}

func tagStr(t int) string {
	if t == AnyTag {
		return "*"
	}
	return fmt.Sprintf("%d", t)
}
