package mpi

// Public (hooked) collective API. Each call runs PreColl/PostColl around the
// PMPI implementation, threads the tool clock through the collective's
// clock-flow rule, and counts itself (OpCounts.Coll) once it completes.

// preColl runs the PreColl hook and returns this rank's clock contribution.
func (p *Proc) preColl(op *CollOp) []uint64 {
	h := p.hooks()
	if h.PreColl != nil {
		h.PreColl(p, op)
	}
	if h.CollClockIn != nil {
		return h.CollClockIn(p, op)
	}
	return nil
}

// postColl counts a completed collective and runs the CollClockOut and
// PostColl hooks.
func (p *Proc) postColl(op *CollOp, out []uint64) {
	p.world.ops.Coll++
	h := p.hooks()
	if h.CollClockOut != nil && out != nil {
		h.CollClockOut(p, op, out)
	}
	if h.PostColl != nil {
		h.PostColl(p, op)
	}
}

func (p *Proc) checkReduceOp(kind CollKind, op ReduceFunc) error {
	if op == nil {
		return &UsageError{Rank: p.Rank(), Op: kind.String(), Msg: "nil reduce op"}
	}
	return nil
}

// Barrier synchronizes all ranks of c.
func (p *Proc) Barrier(c Comm) error {
	op := &CollOp{Kind: CollBarrier, Comm: c}
	out, err := p.PMPI().Barrier(c, p.preColl(op))
	if err != nil {
		return err
	}
	p.postColl(op, out)
	return nil
}

// Bcast broadcasts root's data to every rank of c and returns it.
func (p *Proc) Bcast(c Comm, root int, data []byte) ([]byte, error) {
	op := &CollOp{Kind: CollBcast, Comm: c, Root: root}
	res, out, err := p.PMPI().Bcast(c, root, data, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Reduce folds all ranks' data with rop; root receives the result.
func (p *Proc) Reduce(c Comm, root int, data []byte, rop ReduceFunc) ([]byte, error) {
	if err := p.checkReduceOp(CollReduce, rop); err != nil {
		return nil, err
	}
	op := &CollOp{Kind: CollReduce, Comm: c, Root: root}
	res, out, err := p.PMPI().Reduce(c, root, data, rop, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Allreduce folds all ranks' data with rop; every rank receives the result.
func (p *Proc) Allreduce(c Comm, data []byte, rop ReduceFunc) ([]byte, error) {
	if err := p.checkReduceOp(CollAllreduce, rop); err != nil {
		return nil, err
	}
	op := &CollOp{Kind: CollAllreduce, Comm: c}
	res, out, err := p.PMPI().Allreduce(c, data, rop, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Gather collects every rank's data at root (indexed by comm rank; nil at
// non-roots).
func (p *Proc) Gather(c Comm, root int, data []byte) ([][]byte, error) {
	op := &CollOp{Kind: CollGather, Comm: c, Root: root}
	res, out, err := p.PMPI().Gather(c, root, data, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Allgather collects every rank's data at every rank.
func (p *Proc) Allgather(c Comm, data []byte) ([][]byte, error) {
	op := &CollOp{Kind: CollAllgather, Comm: c}
	res, out, err := p.PMPI().Allgather(c, data, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Scatter distributes root's pieces, one per rank.
func (p *Proc) Scatter(c Comm, root int, pieces [][]byte) ([]byte, error) {
	op := &CollOp{Kind: CollScatter, Comm: c, Root: root}
	res, out, err := p.PMPI().Scatter(c, root, pieces, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Alltoall performs a personalized all-to-all exchange.
func (p *Proc) Alltoall(c Comm, pieces [][]byte) ([][]byte, error) {
	op := &CollOp{Kind: CollAlltoall, Comm: c}
	res, out, err := p.PMPI().Alltoall(c, pieces, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// Scan computes an inclusive prefix reduction.
func (p *Proc) Scan(c Comm, data []byte, rop ReduceFunc) ([]byte, error) {
	if err := p.checkReduceOp(CollScan, rop); err != nil {
		return nil, err
	}
	op := &CollOp{Kind: CollScan, Comm: c}
	res, out, err := p.PMPI().Scan(c, data, rop, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// ReduceScatter folds piece columns across ranks and scatters the results.
func (p *Proc) ReduceScatter(c Comm, pieces [][]byte, rop ReduceFunc) ([]byte, error) {
	if err := p.checkReduceOp(CollReduceScatter, rop); err != nil {
		return nil, err
	}
	op := &CollOp{Kind: CollReduceScatter, Comm: c}
	res, out, err := p.PMPI().ReduceScatter(c, pieces, rop, p.preColl(op))
	if err != nil {
		return nil, err
	}
	p.postColl(op, out)
	return res, nil
}

// CommDup collectively duplicates c.
func (p *Proc) CommDup(c Comm) (Comm, error) {
	op := &CollOp{Kind: CollCommDup, Comm: c}
	nc, out, err := p.PMPI().CommDup(c, p.preColl(op))
	if err != nil {
		return Comm{}, err
	}
	p.postColl(op, out)
	if h := p.hooks(); h.PostCommCreate != nil {
		h.PostCommCreate(p, c, nc)
	}
	return nc, nil
}

// CommSplit collectively splits c by color, ordered by (key, old rank).
// A negative color excludes the caller, which receives an invalid Comm.
func (p *Proc) CommSplit(c Comm, color, key int) (Comm, error) {
	op := &CollOp{Kind: CollCommSplit, Comm: c}
	nc, out, err := p.PMPI().CommSplit(c, color, key, p.preColl(op))
	if err != nil {
		return Comm{}, err
	}
	p.postColl(op, out)
	if h := p.hooks(); h.PostCommCreate != nil && nc.Valid() {
		h.PostCommCreate(p, c, nc)
	}
	return nc, nil
}

// CommFree collectively releases c.
func (p *Proc) CommFree(c Comm) error {
	op := &CollOp{Kind: CollCommFree, Comm: c}
	out, err := p.PMPI().CommFree(c, p.preColl(op))
	if err != nil {
		return err
	}
	p.postColl(op, out)
	if h := p.hooks(); h.PostCommFree != nil {
		h.PostCommFree(p, c)
	}
	return nil
}
