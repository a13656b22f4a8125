package mpi

// PMPI-level collective entry points. The clock argument/result implements
// the tool clock flow (nil when no tool is tracking clocks); the public Proc
// facade wires it to Hooks.CollClockIn/CollClockOut.

// Barrier synchronizes all ranks of c.
func (m PMPI) Barrier(c Comm, clock []uint64) ([]uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollBarrier, clock: clock})
	return res.clock, err
}

// Bcast broadcasts root's data to all ranks of c.
func (m PMPI) Bcast(c Comm, root int, data []byte, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollBcast, root: root, data: data, clock: clock})
	return res.data, res.clock, err
}

// Reduce folds all contributions with op; the result is delivered to root
// (nil elsewhere).
func (m PMPI) Reduce(c Comm, root int, data []byte, op ReduceFunc, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollReduce, root: root, data: data, op: op, clock: clock})
	return res.data, res.clock, err
}

// Allreduce folds all contributions with op and delivers the result to all.
func (m PMPI) Allreduce(c Comm, data []byte, op ReduceFunc, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollAllreduce, data: data, op: op, clock: clock})
	return res.data, res.clock, err
}

// Gather collects every rank's contribution at root, indexed by comm rank.
func (m PMPI) Gather(c Comm, root int, data []byte, clock []uint64) ([][]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollGather, root: root, data: data, clock: clock})
	return res.datav, res.clock, err
}

// Allgather collects every rank's contribution at every rank.
func (m PMPI) Allgather(c Comm, data []byte, clock []uint64) ([][]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollAllgather, data: data, clock: clock})
	return res.datav, res.clock, err
}

// Scatter distributes root's pieces (one per rank) across c.
func (m PMPI) Scatter(c Comm, root int, pieces [][]byte, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollScatter, root: root, pieces: pieces, clock: clock})
	return res.data, res.clock, err
}

// Alltoall performs a personalized exchange: each rank provides one piece
// per destination and receives one piece per source.
func (m PMPI) Alltoall(c Comm, pieces [][]byte, clock []uint64) ([][]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollAlltoall, pieces: pieces, clock: clock})
	return res.datav, res.clock, err
}

// Scan computes an inclusive prefix reduction over comm ranks.
func (m PMPI) Scan(c Comm, data []byte, op ReduceFunc, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollScan, data: data, op: op, clock: clock})
	return res.data, res.clock, err
}

// ReduceScatter folds each piece column across ranks and scatters the
// results: rank i receives fold(pieces_j[i] for all j).
func (m PMPI) ReduceScatter(c Comm, pieces [][]byte, op ReduceFunc, clock []uint64) ([]byte, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollReduceScatter, pieces: pieces, op: op, clock: clock})
	return res.data, res.clock, err
}

// CommDup collectively duplicates c.
func (m PMPI) CommDup(c Comm, clock []uint64) (Comm, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollCommDup, clock: clock})
	return res.newComm, res.clock, err
}

// CommSplit collectively splits c by color (color < 0 excludes the caller,
// which receives an invalid Comm), ordering each group by (key, old rank).
func (m PMPI) CommSplit(c Comm, color, key int, clock []uint64) (Comm, []uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollCommSplit, color: color, key: key, clock: clock})
	return res.newComm, res.clock, err
}

// CommFree collectively releases c. The handle must not be used afterwards.
func (m PMPI) CommFree(c Comm, clock []uint64) ([]uint64, error) {
	res, err := m.enterCollective(c, collArgs{kind: CollCommFree, clock: clock})
	return res.clock, err
}
