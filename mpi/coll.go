package mpi

import "fmt"

// ReduceFunc combines two reduction contributions. Built-in codecs and ops
// for common element types live in reduce.go.
type ReduceFunc func(a, b []byte) []byte

// collective is one in-flight collective instance on a communicator. Ranks
// rendezvous by per-rank entry sequence number: the i-th collective call a
// rank makes on a communicator joins instance i. Kind/root mismatches across
// ranks are therefore detected as usage errors.
type collective struct {
	kind    CollKind
	root    int
	n       int
	arrived int
	read    int

	contrib  [][]byte
	pieces   [][][]byte
	colors   []int
	keys     []int
	op       ReduceFunc
	clockIn  [][]uint64
	clockOut [][]uint64

	out      [][]byte
	outv     [][][]byte
	newComms []Comm // per-rank resulting communicator (dup/split)

	done bool
}

// collArgs carries one rank's contribution into enterCollective.
type collArgs struct {
	kind   CollKind
	root   int
	data   []byte
	pieces [][]byte
	color  int
	key    int
	op     ReduceFunc
	clock  []uint64
}

// collResult is what one rank takes out of a completed collective.
type collResult struct {
	data    []byte
	datav   [][]byte
	newComm Comm
	clock   []uint64
}

// enterCollective joins (or creates) the rank's next collective instance on
// c, blocks until all members have arrived, and returns this rank's results.
func (m PMPI) enterCollective(c Comm, a collArgs) (collResult, error) {
	p := m.p
	if err := m.checkActive(a.kind.String()); err != nil {
		return collResult{}, err
	}
	w := p.world
	if w.failure != nil {
		return collResult{}, w.failure
	}
	if !c.Valid() {
		return collResult{}, &UsageError{Rank: p.rank, Op: a.kind.String(), Msg: "invalid communicator"}
	}
	ci := c.info
	me := c.localRank
	if ci.parent != nil {
		return collResult{}, &UsageError{Rank: p.rank, Op: a.kind.String(), Msg: fmt.Sprintf("collective on tool context %s", c)}
	}
	if a.kind == CollCommFree {
		ci.ranks[me].freed = true // the handle is dead from here, whoever else has yet to free
	} else if err := c.checkLive(p, a.kind.String()); err != nil {
		return collResult{}, err
	}
	seq := ci.ranks[me].collSeq
	ci.ranks[me].collSeq++
	inst := ci.colls[seq]
	if inst == nil {
		inst = ci.newCollective(a.kind, a.root)
		ci.colls[seq] = inst
	}
	if inst.kind != a.kind || inst.root != a.root {
		err := &UsageError{
			Rank: p.rank,
			Op:   a.kind.String(),
			Msg: fmt.Sprintf("collective mismatch on %s call #%d: rank %d called %s(root=%d), another rank called %s(root=%d)",
				c, seq, me, a.kind, a.root, inst.kind, inst.root),
		}
		w.fail(err)
		return collResult{}, err
	}
	inst.contrib[me] = a.data
	inst.pieces[me] = a.pieces
	inst.colors[me] = a.color
	inst.keys[me] = a.key
	inst.clockIn[me] = a.clock
	if a.op != nil {
		inst.op = a.op
	}
	inst.arrived++
	if inst.arrived == inst.n {
		if err := w.computeCollective(ci, inst); err != nil {
			w.fail(err)
			return collResult{}, err
		}
		inst.done = true
		for _, wr := range ci.members {
			if q := w.procs[wr]; q.park.coll == inst {
				w.setReady(q)
			}
		}
	} else {
		p.park = parking{kind: parkColl, coll: inst, comm: c}
		if err := w.block(p); err != nil {
			return collResult{}, err
		}
	}
	res := collResult{clock: inst.clockOut[me]}
	if inst.out != nil {
		res.data = inst.out[me]
	}
	if inst.outv != nil {
		res.datav = inst.outv[me]
	}
	if inst.newComms != nil {
		res.newComm = inst.newComms[me]
	}
	inst.read++
	if inst.read == inst.n {
		delete(ci.colls, seq)
		ci.retireCollective(inst)
	}
	return res, nil
}

// newCollective starts an instance, reusing a retired one's per-rank arrays
// when the communicator has any.
func (ci *commInfo) newCollective(kind CollKind, root int) *collective {
	n := len(ci.members)
	if k := len(ci.collFree); k > 0 {
		inst := ci.collFree[k-1]
		ci.collFree = ci.collFree[:k-1]
		inst.kind, inst.root, inst.n = kind, root, n
		return inst
	}
	return &collective{
		kind:     kind,
		root:     root,
		n:        n,
		contrib:  make([][]byte, n),
		pieces:   make([][][]byte, n),
		colors:   make([]int, n),
		keys:     make([]int, n),
		clockIn:  make([][]uint64, n),
		clockOut: make([][]uint64, n),
	}
}

// retireCollective keeps a fully-read instance for reuse. Ranks take only
// elements out of an instance, never its per-rank arrays, so those are
// cleared (to drop the payload references) and kept.
func (ci *commInfo) retireCollective(inst *collective) {
	clear(inst.contrib)
	clear(inst.pieces)
	clear(inst.clockIn)
	clear(inst.clockOut)
	*inst = collective{
		contrib: inst.contrib, pieces: inst.pieces, colors: inst.colors,
		keys: inst.keys, clockIn: inst.clockIn, clockOut: inst.clockOut,
	}
	ci.collFree = append(ci.collFree, inst)
}

// computeCollective fills in every rank's results once all members
// have contributed. Also combines the tool clocks per the paper's rules:
// Barrier/Allreduce/Allgather/Alltoall/ReduceScatter and the communicator
// collectives behave like an all-to-all max; Bcast/Scatter deliver the
// root's clock to everyone; Reduce/Gather deliver the max to the root only;
// Scan takes a prefix max.
func (w *World) computeCollective(ci *commInfo, inst *collective) error {
	n := inst.n
	switch inst.kind {
	case CollBarrier, CollCommFree:
		// Pure synchronization.
	case CollBcast:
		inst.out = make([][]byte, n)
		for i := range inst.out {
			inst.out[i] = inst.contrib[inst.root]
		}
	case CollReduce:
		inst.out = make([][]byte, n)
		inst.out[inst.root] = foldContrib(inst.contrib, inst.op)
	case CollAllreduce:
		v := foldContrib(inst.contrib, inst.op)
		inst.out = make([][]byte, n)
		for i := range inst.out {
			inst.out[i] = v
		}
	case CollGather:
		inst.outv = make([][][]byte, n)
		inst.outv[inst.root] = append([][]byte(nil), inst.contrib...)
	case CollAllgather:
		all := append([][]byte(nil), inst.contrib...)
		inst.outv = make([][][]byte, n)
		for i := range inst.outv {
			inst.outv[i] = all
		}
	case CollScatter:
		if len(inst.pieces[inst.root]) != n {
			return &UsageError{Rank: ci.members[inst.root], Op: "Scatter",
				Msg: fmt.Sprintf("root provided %d pieces for %d ranks", len(inst.pieces[inst.root]), n)}
		}
		inst.out = make([][]byte, n)
		copy(inst.out, inst.pieces[inst.root])
	case CollAlltoall:
		inst.outv = make([][][]byte, n)
		for i := 0; i < n; i++ {
			if len(inst.pieces[i]) != n {
				return &UsageError{Rank: ci.members[i], Op: "Alltoall",
					Msg: fmt.Sprintf("rank %d provided %d pieces for %d ranks", i, len(inst.pieces[i]), n)}
			}
		}
		for i := 0; i < n; i++ {
			row := make([][]byte, n)
			for j := 0; j < n; j++ {
				row[j] = inst.pieces[j][i]
			}
			inst.outv[i] = row
		}
	case CollScan:
		inst.out = make([][]byte, n)
		acc := inst.contrib[0]
		inst.out[0] = acc
		for i := 1; i < n; i++ {
			acc = inst.op(acc, inst.contrib[i])
			inst.out[i] = acc
		}
	case CollReduceScatter:
		inst.out = make([][]byte, n)
		for i := 0; i < n; i++ {
			if len(inst.pieces[i]) != n {
				return &UsageError{Rank: ci.members[i], Op: "ReduceScatter",
					Msg: fmt.Sprintf("rank %d provided %d pieces for %d ranks", i, len(inst.pieces[i]), n)}
			}
		}
		for i := 0; i < n; i++ {
			col := make([][]byte, n)
			for j := 0; j < n; j++ {
				col[j] = inst.pieces[j][i]
			}
			inst.out[i] = foldContrib(col, inst.op)
		}
	case CollCommDup:
		nc := w.newComm(ci.name+".dup", ci.members)
		inst.newComms = make([]Comm, n)
		for i := range inst.newComms {
			inst.newComms[i] = Comm{info: nc, localRank: i}
		}
	case CollCommSplit:
		groups := computeSplit(ci, inst.colors, inst.keys)
		inst.newComms = make([]Comm, n)
		made := make(map[int]*commInfo, len(groups))
		// Deterministic creation order by color for stable comm IDs.
		for _, color := range sortedKeys(groups) {
			made[color] = w.newComm(fmt.Sprintf("%s.split%d", ci.name, color), groups[color])
		}
		for lr := range ci.members {
			color := inst.colors[lr]
			if color < 0 {
				continue
			}
			nc := made[color]
			inst.newComms[lr] = Comm{info: nc, localRank: nc.rankOf[ci.members[lr]]}
		}
	default:
		return &UsageError{Op: inst.kind.String(), Msg: "unimplemented collective"}
	}
	combineClocks(inst)
	return nil
}

// combineClocks fills clockOut per the collective's clock-flow rule. Missing
// (nil) contributions mean the tool layer isn't tracking clocks.
func combineClocks(inst *collective) {
	switch inst.kind {
	case CollBcast, CollScatter:
		rc := inst.clockIn[inst.root]
		for i := range inst.clockOut {
			inst.clockOut[i] = maxClock(inst.clockIn[i], rc)
		}
	case CollReduce, CollGather:
		for i := range inst.clockOut {
			inst.clockOut[i] = inst.clockIn[i]
		}
		inst.clockOut[inst.root] = maxAllClocks(inst.clockIn)
	case CollScan:
		var acc []uint64
		for i := range inst.clockOut {
			acc = maxClock(acc, inst.clockIn[i])
			inst.clockOut[i] = acc
		}
	default: // Barrier, Allreduce, Allgather, Alltoall, ReduceScatter, comm ops
		all := maxAllClocks(inst.clockIn)
		for i := range inst.clockOut {
			inst.clockOut[i] = all
		}
	}
}

// maxClock returns the component-wise max of a and b (nil-tolerant; a copy).
func maxClock(a, b []uint64) []uint64 {
	if a == nil && b == nil {
		return nil
	}
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]uint64, n)
	for i := range out {
		var x, y uint64
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		if x > y {
			out[i] = x
		} else {
			out[i] = y
		}
	}
	return out
}

func maxAllClocks(in [][]uint64) []uint64 {
	var acc []uint64
	for _, c := range in {
		acc = maxClock(acc, c)
	}
	return acc
}

func foldContrib(contrib [][]byte, op ReduceFunc) []byte {
	acc := contrib[0]
	for _, c := range contrib[1:] {
		acc = op(acc, c)
	}
	return acc
}

func sortedKeys(m map[int][]int) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
