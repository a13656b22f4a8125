package mpi

// Additional point-to-point and completion operations: the rest of the
// Wait/Test family, combined send-receive, and receive cancellation.

// Sendrecv performs a combined send and receive (MPI_Sendrecv): both
// transfers proceed concurrently, so symmetric exchanges cannot deadlock
// even with synchronous semantics. recvSrc may be AnySource and recvTag
// AnyTag.
func (p *Proc) Sendrecv(dest, sendTag int, data []byte, recvSrc, recvTag int, c Comm) ([]byte, Status, error) {
	rreq, err := p.Irecv(recvSrc, recvTag, c)
	if err != nil {
		return nil, Status{}, err
	}
	sreq, err := p.Isend(dest, sendTag, data, c)
	if err != nil {
		return nil, Status{}, err
	}
	st, err := p.Wait(rreq)
	if err != nil {
		return nil, Status{}, err
	}
	if _, err := p.Wait(sreq); err != nil {
		return nil, Status{}, err
	}
	return rreq.Data(), st, nil
}

// Waitsome blocks until at least one unconsumed request completes, then
// consumes and returns the indices (and statuses) of every completed
// request (MPI_Waitsome).
func (p *Proc) Waitsome(reqs []*Request) ([]int, []Status, error) {
	idx, st, err := p.Waitany(reqs)
	if err != nil {
		return nil, nil, err
	}
	indices := []int{idx}
	statuses := []Status{st}
	for {
		i, st2, ok, err := p.Testany(reqs)
		if err != nil {
			return nil, nil, err
		}
		if !ok {
			return indices, statuses, nil
		}
		indices = append(indices, i)
		statuses = append(statuses, st2)
	}
}

// Testany checks for any completed, unconsumed request; on success it
// consumes it and returns its index (MPI_Testany).
func (p *Proc) Testany(reqs []*Request) (int, Status, bool, error) {
	h := p.hooks()
	if h != nil && h.PreWait != nil {
		h.PreWait(p, reqs)
	}
	var op *WaitanyOp
	if h != nil && (h.PreWaitany != nil || h.PostWaitany != nil) {
		op = &WaitanyOp{Reqs: reqs, ForceIndex: -1}
		if h.PreWaitany != nil {
			h.PreWaitany(p, op)
		}
		if f := op.ForceIndex; f >= 0 && f < len(reqs) && reqs[f] != nil && !reqs[f].consumed {
			// Forced completion (guided replay): the recorded run observed
			// this request ready here, so waiting for it terminates.
			st, err := p.pmpi.Wait(reqs[f])
			if err != nil {
				return -1, Status{}, false, err
			}
			p.observeCompletion(reqs[f], st)
			if h.PostWaitany != nil {
				h.PostWaitany(p, op, f, reqs[f].Status())
			}
			return f, reqs[f].Status(), true, nil
		}
	}
	idx, st, ok, err := p.pmpi.Testany(reqs)
	if err != nil || !ok {
		return -1, Status{}, false, err
	}
	req := reqs[idx]
	p.observeCompletion(req, st)
	if op != nil && h.PostWaitany != nil {
		h.PostWaitany(p, op, idx, req.Status())
	}
	return idx, req.Status(), true, nil
}

// Cancel cancels a posted receive that has not yet matched (MPI_Cancel for
// receive requests). A cancelled request counts as complete: Wait/Test on
// it succeed with a zero status, and it does not leak. Cancelling an
// already-matched or send request is a no-op returning false.
func (p *Proc) Cancel(req *Request) (bool, error) {
	if req == nil {
		return false, &UsageError{Rank: p.rank, Op: "Cancel", Msg: "nil request"}
	}
	ok, err := p.pmpi.Cancel(req)
	if err != nil || !ok {
		return ok, err
	}
	// Observe the (cancelled) completion so tool layers see the request
	// retire: leak tracking removes it, DAMPI cleans up its piggyback.
	_, err = p.Wait(req)
	return true, err
}

// Cancelled reports whether the request was cancelled.
func (r *Request) Cancelled() bool { return r.cancelled }

// PersistentRequest is a reusable communication template (MPI_Send_init /
// MPI_Recv_init): Start issues one instance of the operation through the
// normal (hooked) path, so verification tools observe each instance like an
// ordinary nonblocking call.
type PersistentRequest struct {
	proc *Proc
	kind RequestKind
	peer int
	tag  int
	data []byte
	comm Comm

	active *Request
}

// SendInit creates a persistent send template.
func (p *Proc) SendInit(dest, tag int, data []byte, c Comm) *PersistentRequest {
	buf := make([]byte, len(data))
	copy(buf, data)
	return &PersistentRequest{proc: p, kind: KindSend, peer: dest, tag: tag, data: buf, comm: c}
}

// RecvInit creates a persistent receive template. src may be AnySource.
func (p *Proc) RecvInit(src, tag int, c Comm) *PersistentRequest {
	return &PersistentRequest{proc: p, kind: KindRecv, peer: src, tag: tag, comm: c}
}

// SetData replaces the payload of a persistent send template. Must not be
// called while an instance is active.
func (r *PersistentRequest) SetData(data []byte) error {
	if r.activeIncomplete() {
		return &UsageError{Rank: r.proc.rank, Op: "SetData", Msg: "persistent request still active"}
	}
	r.data = make([]byte, len(data))
	copy(r.data, data)
	return nil
}

// activeIncomplete reports whether the last started instance has not yet
// been consumed by a Wait/Test.
func (r *PersistentRequest) activeIncomplete() bool {
	return r.active != nil && !r.active.consumed
}

// Start issues one instance (MPI_Start). The returned request is completed
// with the usual Wait/Test family; Start may be called again afterwards.
func (r *PersistentRequest) Start() (*Request, error) {
	if r.activeIncomplete() {
		return nil, &UsageError{Rank: r.proc.rank, Op: "Start", Msg: "previous instance not yet completed"}
	}
	var req *Request
	var err error
	if r.kind == KindSend {
		req, err = r.proc.Isend(r.peer, r.tag, r.data, r.comm)
	} else {
		req, err = r.proc.Irecv(r.peer, r.tag, r.comm)
	}
	if err != nil {
		return nil, err
	}
	r.active = req
	return req, nil
}

// Startall starts several persistent requests (MPI_Startall).
func (p *Proc) Startall(prs []*PersistentRequest) ([]*Request, error) {
	reqs := make([]*Request, len(prs))
	for i, pr := range prs {
		req, err := pr.Start()
		if err != nil {
			return nil, err
		}
		reqs[i] = req
	}
	return reqs, nil
}
