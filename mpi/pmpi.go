package mpi

import "fmt"

// PMPI exposes the raw, unhooked runtime operations — the analogue of the
// PMPI_* entry points. Tool layers use it to issue their own traffic (e.g.
// piggyback messages) without re-entering the hooks.
//
// Point-to-point operations are mailbox fast paths: they take only the
// destination mailbox's lock (never w.mu) unless they must park the rank.
// Communicator topology (members, rankOf) is immutable after creation and
// freed[i] is written only by rank i, so argument validation needs no lock.
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
	if err := w.fastFailure(); err != nil {
		return nil, err
	}
	if !c.Valid() {
		return nil, &UsageError{Rank: p.rank, Op: "Isend", Msg: "invalid communicator"}
	}
	if err := c.checkLive(p, "Isend"); err != nil {
		return nil, err
	}
	if err := c.checkPeer(p, "Isend", dest, false); err != nil {
		return nil, err
	}
	if tag < 0 {
		return nil, &UsageError{Rank: p.rank, Op: "Isend", Msg: fmt.Sprintf("negative tag %d", tag)}
	}
	req := p.newRequest()
	req.id = w.nextReq.Add(1)
	req.kind = KindSend
	req.proc = p
	req.comm = c
	req.peer = dest
	req.tag = tag
	buf := append(p.pool.getBuf(len(data)), data...)
	req.data = buf
	env := p.pool.getEnv()
	env.src = c.localRank
	env.tag = tag
	env.data = buf
	env.seq = w.sendSeq.Add(1)
	if sync {
		env.sreq = req
	} else {
		req.status = Status{Source: c.localRank, Tag: tag, Count: len(buf)}
		req.done.Store(true)
	}
	w.deliver(c.info, dest, env, p)
	return req, nil
}

// deliver matches env against the posted receives of (ci, dest) or queues it
// as unexpected, holding only that mailbox's lock. Wakeups happen after the
// lock is released (wake takes w.mu, which must not nest inside mb.mu). by is
// the proc whose goroutine is executing the call (the sender): a matched
// envelope recycles into its freelist slot.
func (w *World) deliver(ci *commInfo, dest int, env *envelope, by *Proc) {
	mb := &ci.boxes[dest]
	mb.mu.Lock()
	for i, preq := range mb.posted {
		if preq.matchesEnv(env) {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			rp := preq.proc
			preq.completeRecv(env)
			sp := w.completeSyncSend(env)
			by.pool.putEnv(env)
			mb.mu.Unlock()
			w.wake(rp)
			if sp != nil {
				w.wake(sp)
			}
			return
		}
	}
	mb.unexpected = append(mb.unexpected, env)
	mb.mu.Unlock()
	// A blocked probe on this rank may now be satisfiable.
	w.wake(w.procs[ci.members[dest]])
}

// completeSyncSend finishes the sender side of a synchronous send once its
// envelope has been matched. Caller holds the destination mailbox lock and
// must wake the returned proc (if any) after releasing it. The done store is
// the last access: from then on the sender may consume and Free the request.
func (w *World) completeSyncSend(env *envelope) *Proc {
	sreq := env.sreq
	if sreq == nil {
		return nil
	}
	sp := sreq.proc
	sreq.status = Status{Source: env.src, Tag: env.tag, Count: len(env.data)}
	sreq.done.Store(true)
	return sp
}

// Irecv posts a nonblocking receive. src may be AnySource; tag may be AnyTag.
func (m PMPI) Irecv(src, tag int, c Comm) (*Request, error) {
	p := m.p
	if err := m.checkActive("Irecv"); err != nil {
		return nil, err
	}
	w := p.world
	if err := w.fastFailure(); err != nil {
		return nil, err
	}
	if !c.Valid() {
		return nil, &UsageError{Rank: p.rank, Op: "Irecv", Msg: "invalid communicator"}
	}
	if err := c.checkLive(p, "Irecv"); err != nil {
		return nil, err
	}
	if err := c.checkPeer(p, "Irecv", src, true); err != nil {
		return nil, err
	}
	req := p.newRequest()
	req.id = w.nextReq.Add(1)
	req.kind = KindRecv
	req.proc = p
	req.comm = c
	req.peer = src
	req.tag = tag
	mb := &c.info.boxes[c.localRank]
	mb.mu.Lock()
	for i, env := range mb.unexpected {
		if req.matchesEnv(env) {
			mb.unexpected = append(mb.unexpected[:i], mb.unexpected[i+1:]...)
			req.completeRecv(env)
			sp := w.completeSyncSend(env)
			p.pool.putEnv(env)
			mb.mu.Unlock()
			if sp != nil {
				w.wake(sp)
			}
			return req, nil
		}
	}
	mb.posted = append(mb.posted, req)
	mb.mu.Unlock()
	return req, nil
}

// Wait blocks until the request completes and consumes the completion.
// Waiting on an already-consumed request returns its cached status. The
// completed case is lock-free: only an uncompleted request parks the rank.
func (m PMPI) Wait(req *Request) (Status, error) {
	p := m.p
	if req.consumed {
		return req.status, nil
	}
	if req.done.Load() {
		req.consumed = true
		return req.status, nil
	}
	w := p.world
	desc := func() string {
		return fmt.Sprintf("Wait(%s peer=%d tag=%d %s)", req.kind, req.peer, req.tag, req.comm)
	}
	w.mu.Lock()
	err := w.block(p, desc, func() bool { return req.done.Load() })
	w.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	req.consumed = true
	return req.status, nil
}

// Test checks the request without blocking; on completion it consumes it.
func (m PMPI) Test(req *Request) (Status, bool, error) {
	if err := m.p.world.fastFailure(); err != nil {
		return Status{}, false, err
	}
	if req.consumed {
		return req.status, true, nil
	}
	if !req.done.Load() {
		return Status{}, false, nil
	}
	req.consumed = true
	return req.status, true, nil
}

// Waitany blocks until at least one unconsumed request in reqs completes,
// consumes it, and returns its index and status.
func (m PMPI) Waitany(reqs []*Request) (int, Status, error) {
	p := m.p
	for i, r := range reqs {
		if r != nil && !r.consumed && r.done.Load() {
			r.consumed = true
			return i, r.status, nil
		}
	}
	w := p.world
	idx := -1
	pred := func() bool {
		for i, r := range reqs {
			if r != nil && !r.consumed && r.done.Load() {
				idx = i
				return true
			}
		}
		return false
	}
	w.mu.Lock()
	err := w.block(p, func() string { return fmt.Sprintf("Waitany(%d reqs)", len(reqs)) }, pred)
	w.mu.Unlock()
	if err != nil {
		return -1, Status{}, err
	}
	reqs[idx].consumed = true
	return idx, reqs[idx].status, nil
}

// Probe blocks until a message matching (src, tag) is available on c and
// returns its status without removing it.
func (m PMPI) Probe(src, tag int, c Comm) (Status, error) {
	p := m.p
	w := p.world
	if err := w.fastFailure(); err != nil {
		return Status{}, err
	}
	if err := c.checkLive(p, "Probe"); err != nil {
		return Status{}, err
	}
	if err := c.checkPeer(p, "Probe", src, true); err != nil {
		return Status{}, err
	}
	if st, ok := c.info.findUnexpectedStatus(c.localRank, src, tag); ok {
		return st, nil
	}
	var st Status
	pred := func() bool {
		s, ok := c.info.findUnexpectedStatus(c.localRank, src, tag)
		if ok {
			st = s
		}
		return ok
	}
	desc := func() string {
		return fmt.Sprintf("Probe(src=%s, tag=%s, %s)", rankStr(src), tagStr(tag), c)
	}
	w.mu.Lock()
	err := w.block(p, desc, pred)
	w.mu.Unlock()
	if err != nil {
		return Status{}, err
	}
	return st, nil
}

// Iprobe checks for a matching message without blocking.
func (m PMPI) Iprobe(src, tag int, c Comm) (Status, bool, error) {
	p := m.p
	if err := p.world.fastFailure(); err != nil {
		return Status{}, false, err
	}
	if err := c.checkLive(p, "Iprobe"); err != nil {
		return Status{}, false, err
	}
	if err := c.checkPeer(p, "Iprobe", src, true); err != nil {
		return Status{}, false, err
	}
	st, ok := c.info.findUnexpectedStatus(c.localRank, src, tag)
	return st, ok, nil
}

// findUnexpectedStatus returns the status of the earliest unexpected envelope
// at dest matching (src, tag). It copies the status out under the mailbox
// lock — envelopes are pooled, so no reference may escape the lock.
func (ci *commInfo) findUnexpectedStatus(dest, src, tag int) (Status, bool) {
	mb := &ci.boxes[dest]
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for _, env := range mb.unexpected {
		if (src == AnySource || src == env.src) && (tag == AnyTag || tag == env.tag) {
			return Status{Source: env.src, Tag: env.tag, Count: len(env.data)}, true
		}
	}
	return Status{}, false
}

// Cancel removes a posted, unmatched receive from its matching queue and
// completes it as cancelled. Returns false if the request already matched
// or is not a receive. The scan and the cancellation happen under the
// mailbox lock, so Cancel is atomic with respect to delivery: a request
// absent from the posted queue has definitely completed.
func (m PMPI) Cancel(req *Request) (bool, error) {
	if req.kind != KindRecv {
		return false, nil
	}
	mb := &req.comm.info.boxes[req.comm.localRank]
	mb.mu.Lock()
	for i, posted := range mb.posted {
		if posted == req {
			mb.posted = append(mb.posted[:i], mb.posted[i+1:]...)
			req.cancelled = true
			req.status = Status{Source: AnySource, Tag: AnyTag, Count: 0}
			req.done.Store(true)
			mb.mu.Unlock()
			return true, nil
		}
	}
	mb.mu.Unlock()
	if req.done.Load() {
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
