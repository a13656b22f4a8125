package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
)

// This file is the table form of a task list: how a checkpoint's frontier
// and a lease frame's subtrees are written. A frontier is a forest — a
// child's prefix node points at its parent task's set and views its
// expansion's pins array (see Decisions) — and the table writes that forest
// as it is, each shared part once:
//
//	{"roots":R,
//	 "pins":[[rank,lc,src,rank,lc,src,...],...],
//	 "nodes":[[parent,array,len,rank,lc,src],[-1,array,len],...],
//	 "tasks":[[node,budget,explorable,depth],[node,budget,explorable,depth,walk,step,rng,next_change,prio...],...]}
//
// pins holds each pins array once, as its longest view, three numbers an
// entry. nodes holds each distinct set once: a prefix node as its parent, a
// view (an index into pins, -1 for none, and a length) and its flip; a flat
// set (a version-1 file's or a reproducer's) as -1 and the view, whose
// entries must be sorted by (rank, LC) with no key twice. A parent is -1 for
// the empty set or the number of an earlier row. tasks holds each task as
// its node's number (-1 for the root task's nil set), its budget,
// explorable as 0 or 1, its depth and, for a sampled walk step, the walk's
// state. Rows are numbered from R: in a lease's result, whose leftovers hang
// from the roots of the lease, numbers 0 to R-1 name those roots, every row
// and every task hangs from one of them — no flat set, no parent -1, no task
// -1 — and the coordinator re-links the rows to the root objects it holds
// (Relink). Everywhere else R is 0 and omitted.

// TableWriter writes task lists in the table form. It keeps its scratch from
// one list to the next, so a warm writer allocates only where a list is
// larger than any before it. The zero value is ready; it is not safe for
// concurrent use.
type TableWriter struct {
	rows   map[*Decisions]int // the number of each set written
	arrays map[*decision]int  // the index in pins of each array, by its first entry
	pins   [][]decision       // each array as its longest view
	nodes  []tableRow
	chain  []*Decisions
	tasks  []int // each task's node number
	roots  int
}

// tableRow is one set of the table: a prefix node, or a flat set.
type tableRow struct {
	parent, array, n int
	flip             decision
	flat             bool
}

// Append appends the table form of tasks to b. A task whose chain passes
// through the set of roots[i] is written hanging from root i, and nothing of
// that set or above it is written; roots is a lease's, for its result, and
// nil for any other list.
func (w *TableWriter) Append(b []byte, tasks, roots []*SubtreeTask) []byte {
	if w.rows == nil {
		w.rows, w.arrays = make(map[*Decisions]int), make(map[*decision]int)
	}
	w.roots = len(roots)
	for i, r := range roots {
		d := r.Decisions
		if d == nil {
			d = noDecisions // the root task's children hang from it
		}
		if _, seen := w.rows[d]; !seen {
			w.rows[d] = i
		}
	}
	for _, t := range tasks {
		w.tasks = append(w.tasks, w.number(t.Decisions))
	}

	b = append(b, '{')
	if w.roots > 0 {
		b = append(b, `"roots":`...)
		b = strconv.AppendInt(b, int64(w.roots), 10)
		b = append(b, ',')
	}
	b = append(b, `"pins":[`...)
	for i, a := range w.pins {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, e := range a {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendEntry(b, e)
		}
		b = append(b, ']')
	}
	b = append(b, `],"nodes":[`...)
	for i, r := range w.nodes {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(r.parent), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r.array), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(r.n), 10)
		if !r.flat {
			b = append(b, ',')
			b = appendEntry(b, r.flip)
		}
		b = append(b, ']')
	}
	b = append(b, `],"tasks":[`...)
	for i, t := range tasks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(w.tasks[i]), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(t.Budget), 10)
		if t.Explorable {
			b = append(b, ",1,"...)
		} else {
			b = append(b, ",0,"...)
		}
		b = strconv.AppendInt(b, int64(t.Depth), 10)
		if s := t.Sample; s != nil {
			for _, v := range []int{s.Walk, s.Step} {
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(v), 10)
			}
			b = append(b, ',')
			b = strconv.AppendUint(b, s.Rng, 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(s.NextChange), 10)
			for _, p := range s.Prio {
				b = append(b, ',')
				b = strconv.AppendInt(b, int64(p), 10)
			}
		}
		b = append(b, ']')
	}
	b = append(b, "]}"...)

	// Keep the storage, not what it points at: the sets are the caller's.
	clear(w.rows)
	clear(w.arrays)
	clear(w.pins)
	clear(w.chain)
	w.pins, w.nodes, w.chain, w.tasks = w.pins[:0], w.nodes[:0], w.chain[:0], w.tasks[:0]
	return b
}

// appendEntry appends one decision as its three numbers.
func appendEntry(b []byte, e decision) []byte {
	b = strconv.AppendInt(b, int64(e.rank), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, e.lc, 10)
	b = append(b, ',')
	return strconv.AppendInt(b, int64(e.src), 10)
}

// number returns the row number of d, adding a row for every set of its
// chain not yet written, parents first: -1 for a nil set, and for the empty
// set a node hangs from.
func (w *TableWriter) number(d *Decisions) int {
	if d == nil {
		return -1
	}
	n := -1
	for {
		if k, ok := w.rows[d]; ok {
			n = k
			break
		}
		if d == noDecisions && len(w.chain) > 0 {
			break
		}
		w.chain = append(w.chain, d)
		if !d.isNode() {
			break
		}
		d = d.parent
	}
	for i := len(w.chain) - 1; i >= 0; i-- {
		e := w.chain[i]
		r := tableRow{parent: n, flip: e.flip, flat: !e.isNode()}
		r.array, r.n = w.array(e.entries)
		n = w.roots + len(w.nodes)
		w.nodes = append(w.nodes, r)
		w.rows[e] = n
	}
	clear(w.chain)
	w.chain = w.chain[:0]
	return n
}

// array returns the index in pins of the array view ds is of, and its
// length. The views of one array share its first entry, and the longest
// is the one written.
func (w *TableWriter) array(ds []decision) (int, int) {
	if len(ds) == 0 {
		return -1, 0
	}
	k, ok := w.arrays[&ds[0]]
	switch {
	case !ok:
		k = len(w.pins)
		w.arrays[&ds[0]] = k
		w.pins = append(w.pins, ds)
	case len(ds) > len(w.pins[k]):
		w.pins[k] = ds
	}
	return k, len(ds)
}

// TaskTable is a task list read from its table form.
type TaskTable struct {
	Tasks []*SubtreeTask
	// pins and sets are what a table's rows are made of: every pins array,
	// end to end, and every row's set.
	pins []decision
	sets []Decisions
	// roots is the number of lease roots; under holds per row, and hang per
	// task, the lease root it hangs from (nil without roots).
	roots int
	under []int
	hang  []int
}

// leaseRoot is the parent a row that hangs from a lease root has until
// Relink: the empty flat set, never changed.
var leaseRoot = new(Decisions)

// Roots is the number of lease roots the table's rows hang from: a lease
// result's, 0 for any other list.
func (t *TaskTable) Roots() int { return t.roots }

// Relink points every row that hangs from a lease root at that root's set,
// roots being the lease's roots in order: the objects the reader already
// holds for them, so a leftover shares its root's prefix and nothing of it is
// copied. Until then such a row hangs from leaseRoot. It returns, per task,
// the index of the root it hangs from.
func (t *TaskTable) Relink(roots []*SubtreeTask) ([]int, error) {
	if len(roots) != t.roots {
		return nil, fmt.Errorf("core: task table hangs from %d lease roots, the lease has %d", t.roots, len(roots))
	}
	for j, k := range t.under {
		if d := &t.sets[j]; d.parent == leaseRoot {
			d.parent = roots[k].Decisions
			if d.parent == nil {
				d.parent = noDecisions
			}
		}
	}
	return t.hang, nil
}

// UnmarshalJSON implements json.Unmarshaler. A table is read by a scanner that
// builds the rows' sets directly — one array holds all the pins, one all the
// sets, one all the tasks — and refuses a table whose rows do not form a
// forest: a parent that is not an earlier row, a view outside its array, an
// unsorted flat set, a task naming no row or a lease root itself, and in a
// table with lease roots a row or a task that hangs from none. null is the
// empty list.
func (t *TaskTable) UnmarshalJSON(b []byte) error {
	*t = TaskTable{}
	s := scanners.Get().(*tableScanner)
	defer s.release()
	s.decisionScanner = decisionScanner{buf: b}
	if s.space() == 'n' {
		if err := s.consume("null"); err != nil {
			return err
		}
	} else if err := s.table(); err != nil {
		return err
	}
	if s.space(); s.pos < len(s.buf) {
		return s.errorf("trailing data")
	}
	return s.build(t)
}

// scanners lend the scratch a table is scanned into, so reading one
// allocates only what it builds.
var scanners = sync.Pool{New: func() any { return new(tableScanner) }}

// release empties s, keeping its storage, and returns it to scanners.
func (s *tableScanner) release() {
	clear(s.tasks) // their samples are the table's
	*s = tableScanner{pins: s.pins[:0], ends: s.ends[:0], rows: s.rows[:0], tasks: s.tasks[:0], num: s.num[:0]}
	scanners.Put(s)
}

// tableScanner reads a table into its parts, which build then checks and
// turns into sets and tasks. It calls no closure per row: each row is read
// into its reused number scratch and converted from there.
type tableScanner struct {
	decisionScanner
	roots int
	pins  []decision // every array, end to end
	ends  []int      // where each array ends in pins
	rows  []rowSpec
	tasks []taskSpec
	num   []number // the numbers of the row being read
}

type rowSpec struct {
	parent, array, n int
	flip             decision
	flat             bool
}

type taskSpec struct {
	node, budget, depth int
	explorable          bool
	sample              *SampleState
}

// number is one integer of a row as scanned: its magnitude and sign.
type number struct {
	v   uint64
	neg bool
}

// tableKeys are the table's members as they appear in its text.
var tableKeys = [...]string{`"roots"`, `"pins"`, `"nodes"`, `"tasks"`}

// table scans the table object: each member at most once, in any order.
func (s *tableScanner) table() error {
	var seen [len(tableKeys)]bool
	_, err := s.members(func() error {
		k := 0
		for k < len(tableKeys) && !bytes.HasPrefix(s.buf[s.pos:], []byte(tableKeys[k])) {
			k++
		}
		if k == len(tableKeys) || seen[k] {
			return s.errorf(`want one each of "roots", "pins", "nodes" and "tasks"`)
		}
		seen[k] = true
		s.pos += len(tableKeys[k])
		if err := s.expect(':'); err != nil {
			return err
		}
		switch k {
		case 0:
			s.space()
			neg := s.accept('-')
			n, ok := s.digits()
			if neg || !ok || n > math.MaxInt32 {
				return s.errorf("want a count of roots below 2³¹")
			}
			s.roots = int(n)
			return nil
		case 1:
			return s.list(s.pinsArray)
		case 2:
			return s.list(s.row)
		}
		return s.list(s.task)
	})
	return err
}

// list scans `[ <element>, ... ]`, calling element on each.
func (s *tableScanner) list(element func() error) error {
	if err := s.expect('['); err != nil {
		return err
	}
	if s.space() == ']' {
		s.pos++
		return nil
	}
	for {
		s.space()
		if err := element(); err != nil {
			return err
		}
		switch s.space() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.errorf("want ',' or ']'")
		}
	}
}

// numbers scans an array of integers into num.
func (s *tableScanner) numbers() error {
	s.num = s.num[:0]
	if err := s.expect('['); err != nil {
		return err
	}
	if s.space() == ']' {
		s.pos++
		return nil
	}
	for {
		s.space()
		neg := s.accept('-')
		v, ok := s.digits()
		if !ok {
			return s.errorf("want a decimal integer")
		}
		s.num = append(s.num, number{v: v, neg: neg})
		switch s.space() {
		case ',':
			s.pos++
		case ']':
			s.pos++
			return nil
		default:
			return s.errorf("want ',' or ']'")
		}
	}
}

// int is num[i] as an int.
func (s *tableScanner) int(i int) (int, error) {
	n := s.num[i]
	if n.v > math.MaxInt {
		return 0, s.errorf("integer out of range")
	}
	if n.neg {
		return -int(n.v), nil
	}
	return int(n.v), nil
}

// int32 is num[i] as an int32: the width of a rank and of a source.
func (s *tableScanner) int32(i int) (int32, error) {
	v, err := s.int(i)
	if err == nil && int(int32(v)) != v {
		err = s.errorf("integer out of range")
	}
	return int32(v), err
}

// uint is num[i] as a uint64: the width of an LC and of a walk's generator.
func (s *tableScanner) uint(i int) (uint64, error) {
	if n := s.num[i]; !n.neg || n.v == 0 {
		return n.v, nil
	}
	return 0, s.errorf("negative unsigned integer")
}

// entry is num[i:i+3] as a decision.
func (s *tableScanner) entry(i int) (decision, error) {
	var e decision
	var err error
	if e.rank, err = s.int32(i); err != nil {
		return e, err
	}
	if e.lc, err = s.uint(i + 1); err != nil {
		return e, err
	}
	e.src, err = s.int32(i + 2)
	return e, err
}

// pinsArray scans one pins array: its entries, three numbers each.
func (s *tableScanner) pinsArray() error {
	if err := s.numbers(); err != nil {
		return err
	}
	if len(s.num)%3 != 0 {
		return s.errorf("a pins array of %d numbers, not entries of three", len(s.num))
	}
	for i := 0; i < len(s.num); i += 3 {
		e, err := s.entry(i)
		if err != nil {
			return err
		}
		s.pins = append(s.pins, e)
	}
	s.ends = append(s.ends, len(s.pins))
	return nil
}

// row scans one node row.
func (s *tableScanner) row() error {
	if err := s.numbers(); err != nil {
		return err
	}
	if len(s.num) != 3 && len(s.num) != 6 {
		return s.errorf("a node row of %d numbers, want 3 or 6", len(s.num))
	}
	r := rowSpec{flat: len(s.num) == 3}
	var err error
	if r.parent, err = s.int(0); err != nil {
		return err
	}
	if r.array, err = s.int(1); err != nil {
		return err
	}
	if r.n, err = s.int(2); err != nil {
		return err
	}
	if !r.flat {
		if r.flip, err = s.entry(3); err != nil {
			return err
		}
	}
	s.rows = append(s.rows, r)
	return nil
}

// task scans one task row.
func (s *tableScanner) task() error {
	if err := s.numbers(); err != nil {
		return err
	}
	n := len(s.num)
	if n != 4 && n < 8 {
		return s.errorf("a task row of %d numbers, want 4, or 8 and more", n)
	}
	var t taskSpec
	var explorable int
	var err error
	for i, v := range []*int{&t.node, &t.budget, &explorable, &t.depth} {
		if *v, err = s.int(i); err != nil {
			return err
		}
	}
	if explorable != 0 && explorable != 1 {
		return s.errorf("explorable %d, want 0 or 1", explorable)
	}
	t.explorable = explorable == 1
	if n >= 8 {
		st := &SampleState{}
		if st.Walk, err = s.int(4); err != nil {
			return err
		}
		if st.Step, err = s.int(5); err != nil {
			return err
		}
		if st.Rng, err = s.uint(6); err != nil {
			return err
		}
		if st.NextChange, err = s.int(7); err != nil {
			return err
		}
		if n > 8 {
			st.Prio = make([]int, n-8)
			for i := range st.Prio {
				if st.Prio[i], err = s.int(8 + i); err != nil {
					return err
				}
			}
		}
		t.sample = st
	}
	s.tasks = append(s.tasks, t)
	return nil
}

// build checks the scanned rows and tasks and makes them the table's.
func (s *tableScanner) build(t *TaskTable) error {
	pins := slices.Clone(s.pins) // the scratch goes back to the pool
	sets := make([]Decisions, len(s.rows))
	t.pins, t.sets, t.roots = pins, sets, s.roots
	if s.roots > 0 {
		t.under = make([]int, len(s.rows))
	}
	for j, r := range s.rows {
		own := s.roots + j
		var view []decision
		switch {
		case r.parent < -1 || r.parent >= own:
			return fmt.Errorf("core: task table row %d: parent %d is not an earlier row", own, r.parent)
		case s.roots > 0 && (r.flat || r.parent == -1):
			return fmt.Errorf("core: task table row %d hangs from no lease root", own)
		case r.array == -1 && r.n == 0:
		case r.array < 0 || r.array >= len(s.ends):
			return fmt.Errorf("core: task table row %d: no pins array %d", own, r.array)
		default:
			lo := 0
			if r.array > 0 {
				lo = s.ends[r.array-1]
			}
			if r.n < 0 || r.n > s.ends[r.array]-lo {
				return fmt.Errorf("core: task table row %d: a view of %d entries of pins array %d, which has %d", own, r.n, r.array, s.ends[r.array]-lo)
			}
			view = pins[lo : lo+r.n : lo+r.n]
		}
		if r.flat {
			if r.parent != -1 {
				return fmt.Errorf("core: task table row %d: a flat set with a parent", own)
			}
			for i := 1; i < len(view); i++ {
				if compareKey(view[i-1], view[i]) >= 0 {
					return fmt.Errorf("core: task table row %d: a flat set not sorted by (rank, LC) or deciding r%d@%d twice", own, view[i].rank, view[i].lc)
				}
			}
			sets[j] = Decisions{entries: view}
			continue
		}
		sets[j] = Decisions{entries: view, flip: r.flip}
		switch {
		case r.parent == -1:
			sets[j].parent = noDecisions
		case r.parent < s.roots:
			sets[j].parent, t.under[j] = leaseRoot, r.parent
		default:
			sets[j].parent = &sets[r.parent-s.roots]
			if t.under != nil {
				t.under[j] = t.under[r.parent-s.roots]
			}
		}
	}
	tasks := make([]SubtreeTask, len(s.tasks))
	t.Tasks = make([]*SubtreeTask, len(s.tasks))
	if s.roots > 0 {
		t.hang = make([]int, len(s.tasks))
	}
	for i, ts := range s.tasks {
		tasks[i] = SubtreeTask{Budget: ts.budget, Explorable: ts.explorable, Depth: ts.depth, Sample: ts.sample}
		switch {
		case ts.node == -1 && s.roots > 0:
			return fmt.Errorf("core: task table task %d hangs from no lease root", i)
		case ts.node == -1:
		case ts.node < s.roots && ts.node >= 0:
			return fmt.Errorf("core: task table task %d is lease root %d itself", i, ts.node)
		case ts.node < -1 || ts.node >= s.roots+len(sets):
			return fmt.Errorf("core: task table task %d: no row %d", i, ts.node)
		default:
			tasks[i].Decisions = &sets[ts.node-s.roots]
			if t.hang != nil {
				t.hang[i] = t.under[ts.node-s.roots]
			}
		}
		t.Tasks[i] = &tasks[i]
	}
	return nil
}

// InRange reports the first decision of the tasks read a procs-rank world
// cannot replay (see Decisions.InRange). A table is checked row by row: each
// pins array and each flip once, however many tasks share them — so a pin an
// inherited decision hides, which no writer makes, is refused too. A flat
// list is checked task by task.
func (t *TaskTable) InRange(procs int, choices bool) error {
	if t.sets == nil {
		for _, task := range t.Tasks {
			if task != nil {
				if err := task.Decisions.InRange(procs, choices); err != nil {
					return err
				}
			}
		}
		return nil
	}
	if err := inRange(t.pins, procs, choices); err != nil {
		return err
	}
	for i := range t.sets {
		if d := &t.sets[i]; d.isNode() {
			if err := inRange([]decision{d.flip}, procs, choices); err != nil {
				return err
			}
		}
	}
	return nil
}

// inRange reports the first of es a procs-rank world cannot replay (see
// Decisions.InRange).
func inRange(es []decision, procs int, choices bool) error {
	for _, e := range es {
		if e.rank < 0 || int(e.rank) >= procs || e.src < 0 || !choices && int(e.src) >= procs {
			return fmt.Errorf("core: decision r%d@%d→%d is out of range for %d ranks", e.rank, e.lc, e.src, procs)
		}
	}
	return nil
}

// Flattener flattens many sets into storage it keeps from one call to the
// next, so vetting a lease result's leftovers flattens each once and, warm,
// allocates nothing. The zero value is ready; it is not safe for concurrent
// use.
type Flattener struct {
	buf   []decision
	flats []Decisions
	out   []*Decisions
}

// Flatten returns the flat set each of ds stands for: a flat set (or nil) as
// it is, and each node's flattened into one array shared by all of them.
// What it returns is valid until the next call.
func (f *Flattener) Flatten(ds []*Decisions) []*Decisions {
	n := 0
	for _, d := range ds {
		n += d.chainLen()
	}
	f.buf = slices.Grow(f.buf[:0], n)[:n]
	clear(f.flats)
	f.flats = slices.Grow(f.flats[:0], len(ds))[:len(ds)]
	clear(f.out)
	f.out = slices.Grow(f.out[:0], len(ds))[:len(ds)]
	at := 0
	for i, d := range ds {
		if !d.isNode() {
			f.out[i] = d
			continue
		}
		k := d.chainLen()
		f.flats[i].entries = slices.Clip(d.flattenAt(f.buf[at : at+k]))
		at += k
		f.out[i] = &f.flats[i]
	}
	return f.out
}
