package core

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
)

// Decisions is the Epoch Decisions file of the paper: for each rank, the
// forced source for each epoch, keyed by the rank's Lamport clock at the
// epoch. A rank's guided epoch — the largest forced clock value, past which
// the rank reverts to SELF_RUN — is the LC of its last decision.
//
// A set has one of two forms. A flat set is one slice sorted by (rank, LC)
// with no duplicate key: a file, a frame, a checkpoint and a replay read it,
// and all of those are a single linear pass over it. Each rank's decisions
// are one contiguous run of it, which a replaying rank reads in LC order
// through a cursor (Tool). An entry is 16 bytes: ranks and sources are
// 32-bit.
//
// A prefix node is a child task's prefix as the search builds it (see
// SubtreeTask.buildChildren): its parent task's set, shared by every sibling,
// plus the new epochs its parent's run observed before the flipped one,
// pinned to their observed choices, plus the flip. The pins are a
// capacity-clipped view of one array per expansion, in commit order, so a
// child costs one small allocation however long its prefix. The search never
// changes a node or what it points to once built, and Force refuses a node.
// Every method reads a node as the flat set it stands for (flattenInto),
// which a replay builds in its slot's reused scratch and which a file or a
// frame renders byte for byte as it would render that flat set.
type Decisions struct {
	// entries is the flat set, or a node's pins in commit order.
	entries []decision
	// parent is a node's parent set (noDecisions for the root task's nil
	// one); nil marks a flat set.
	parent *Decisions
	// flip is a node's flipped epoch.
	flip decision
}

// noDecisions is the parent a node records for the root task's nil prefix:
// the empty flat set, never changed.
var noDecisions = new(Decisions)

// decision forces one epoch to a communicator-local source (or, at a choice
// point, a request index or found flag).
type decision struct {
	rank int32
	src  int32
	lc   uint64
}

// newDecision builds the entry forcing rank's epoch at lc to src. A world has
// fewer than 2³¹ ranks and a call fewer than 2³¹ requests, so a rank or a
// source outside int32 is a caller's bug: it panics rather than truncate to
// some other decision. (Input read from a file or the wire is checked before
// it gets here: UnmarshalJSON rejects such values.)
func newDecision(rank int, lc uint64, src int) decision {
	e := decision{rank: int32(rank), src: int32(src), lc: lc}
	if int(e.rank) != rank || int(e.src) != src {
		panic(fmt.Sprintf("core: decision r%d@%d→%d does not fit 32 bits", rank, lc, src))
	}
	return e
}

// compareKey orders decisions by (rank, LC).
func compareKey(a, b decision) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.lc, b.lc)
}

// sameKey reports whether two decisions force the same epoch.
func sameKey(a, b decision) bool { return a.rank == b.rank && a.lc == b.lc }

// NewDecisions returns an empty decision set (pure self-run).
func NewDecisions() *Decisions {
	return &Decisions{}
}

// Empty reports whether no decisions are recorded.
func (d *Decisions) Empty() bool {
	return d == nil || d.parent == nil && len(d.entries) == 0
}

// isNode reports whether d is a prefix node rather than a flat set.
func (d *Decisions) isNode() bool {
	return d != nil && d.parent != nil
}

// child returns the prefix node of a child of the task whose set is d (nil
// for the root task): pins, the new epochs the task's run observed before the
// flipped one, in commit order, and the flip. The node keeps pins as a
// capacity-clipped view, so the caller may append to its own array but must
// never overwrite what the view covers.
func (d *Decisions) child(pins []decision, flip decision) *Decisions {
	parent := d
	if parent == nil {
		parent = noDecisions
	}
	return &Decisions{entries: slices.Clip(pins), parent: parent, flip: flip}
}

// flattenInto returns the flat set d stands for: d itself when it is flat (or
// nil); for a node, its chain flattened into out's storage, which it returns.
// The precedence is the one a copy of the parent's set would have had, pinned
// and flipped: a node's inherited decisions beat its pins, the first of a
// repeated pinned key wins, and the flip replaces. So for each key the deepest
// flip that decides it wins, and failing one the first to decide it from the
// top of the chain down. Laying out the flips deepest first, then the top
// set, then every node's pins from the top down makes that precedence the
// order of appearance: one stable sort by key, keeping the first of each key,
// flattens the chain.
func (d *Decisions) flattenInto(out *Decisions) *Decisions {
	if !d.isNode() {
		return d
	}
	flips, n := 0, 0
	top := d
	for ; top.parent != nil; top = top.parent {
		flips++
		n += len(top.entries)
	}
	n += flips + len(top.entries)
	buf := slices.Grow(out.entries[:0], n)[:n]
	at := n
	for i, e := 0, d; e.parent != nil; i, e = i+1, e.parent {
		buf[i] = e.flip
		at -= len(e.entries)
		copy(buf[at:], e.entries)
	}
	copy(buf[flips:], top.entries)
	sortByKey(buf)
	out.entries = slices.CompactFunc(buf, sameKey)
	return out
}

// sortByKey sorts decisions by (rank, LC), keeping equal keys in their order.
func sortByKey(ds []decision) {
	if !slices.IsSortedFunc(ds, compareKey) {
		slices.SortStableFunc(ds, compareKey)
	}
}

// flatScratch lends the flat sets MarshalJSON renders a node from, so a
// frame or a checkpoint of a frontier allocates no set per task.
var flatScratch = sync.Pool{New: func() any { return new(Decisions) }}

// search returns the position of (rank, lc) in the sorted entries, or where
// it would be inserted. Only the random-access reads use it: Lookup, and
// ofRank once per rank per replay. A replaying rank then reads its decisions
// through a cursor, and insertions (put) find their place from the end.
func (d *Decisions) search(rank int32, lc uint64) (int, bool) {
	// Written out rather than slices.BinarySearchFunc: the comparison through
	// a func value is most of a 25-entry search.
	lo, hi := 0, len(d.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e := &d.entries[mid]; e.rank < rank || e.rank == rank && e.lc < lc {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(d.entries) && d.entries[lo].rank == rank && d.entries[lo].lc == lc
}

// Force records a forced source for an epoch, replacing any earlier one. It
// panics on a rank or a source outside int32 (see newDecision), and on a
// prefix node, which the search never changes. A set that has children is not
// to be forced either: their nodes share its entries. Force a Clone of a
// task's set, not the set itself.
func (d *Decisions) Force(id EpochID, src int) {
	if d.isNode() {
		panic("core: Force on a prefix node; force a Clone of it")
	}
	d.put(newDecision(id.Rank, id.LC, src), true)
}

// put inserts e in its sorted place by one insertion-sort step from the end:
// a key past the last costs nothing, any other costs the entries it passes,
// which are the ones it moves. On a key already present, e replaces that
// decision when replace is set and is dropped otherwise.
func (d *Decisions) put(e decision, replace bool) {
	i := len(d.entries)
	for i > 0 && compareKey(d.entries[i-1], e) > 0 {
		i--
	}
	if i > 0 && compareKey(d.entries[i-1], e) == 0 {
		if replace {
			d.entries[i-1].src = e.src
		}
		return
	}
	d.entries = slices.Insert(d.entries, i, e)
}

// pin forces every completed record to its observed choice where the set does
// not already decide its key — the decisions present and the first of a
// repeated record win — without an insertion per record: a run's reproducer
// pins every epoch of its trace (3072 on 104.milc at 64 ranks). A trace is in
// commit order, ascending LC within a rank with the ranks interleaved, so the
// pins are counted per rank and each is then written straight to its sorted
// place after the present decisions; one stable sort repairs whatever that
// leaves out of order (the present decisions, a trace that breaks the
// pattern), keeping the earlier of two equal keys, and the later copies go.
func (d *Decisions) pin(recs []*EpochRecord) {
	bucket := func(rank int) int {
		if rank < 0 || rank > len(recs) {
			return 0 // no sane index: left to the sort
		}
		return rank
	}
	next := make([]int, 0, 64) // next[b] is where bucket b's next pin goes
	for _, rec := range recs {
		if rec.Chosen >= 0 {
			b := bucket(rec.Rank)
			for len(next) <= b {
				next = append(next, 0)
			}
			next[b]++
		}
	}
	at := len(d.entries)
	for b, count := range next {
		next[b], at = at, at+count
	}
	d.entries = slices.Grow(d.entries, at-len(d.entries))[:at]
	for _, rec := range recs {
		if rec.Chosen >= 0 { // a record never completed has nothing to reproduce
			b := bucket(rec.Rank)
			d.entries[next[b]] = newDecision(rec.Rank, rec.LC, rec.Chosen)
			next[b]++
		}
	}
	sortByKey(d.entries)
	d.entries = slices.CompactFunc(d.entries, sameKey)
}

// Lookup returns the forced source for an epoch, if any.
func (d *Decisions) Lookup(rank int, lc uint64) (int, bool) {
	if d == nil || int(int32(rank)) != rank {
		return 0, false
	}
	if d.isNode() {
		return d.Clone().Lookup(rank, lc)
	}
	if i, found := d.search(int32(rank), lc); found {
		return int(d.entries[i].src), true
	}
	return 0, false
}

// Within reports whether every decision of d is also one of e's (a nil set
// is within any): e forces all that d forces, so e's subtree lies in d's. One
// merge pass over the two sorted sets.
func (d *Decisions) Within(e *Decisions) bool {
	if d.isNode() {
		return d.Clone().Within(e)
	}
	if e.isNode() {
		return d.Within(e.Clone())
	}
	var a, b []decision
	if d != nil {
		a = d.entries
	}
	if e != nil {
		b = e.entries
	}
	j := 0
	for i, x := range a {
		for j < len(b) && compareKey(b[j], x) < 0 {
			j++
		}
		if len(b)-j < len(a)-i || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// ofRank returns rank's decisions in ascending LC order: the flat set's run
// of them, capacity-clipped, for a replaying rank to read through a cursor.
func (d *Decisions) ofRank(rank int) []decision {
	if d == nil || int(int32(rank)) != rank {
		return nil
	}
	lo, _ := d.search(int32(rank), 0)
	hi := lo
	for hi < len(d.entries) && d.entries[hi].rank == int32(rank) {
		hi++
	}
	return d.entries[lo:hi:hi]
}

// Len returns the total number of forced decisions.
func (d *Decisions) Len() int {
	switch {
	case d == nil:
		return 0
	case d.isNode():
		return d.Clone().Len()
	}
	return len(d.entries)
}

// InRange reports the first decision a procs-rank world cannot replay: one
// naming no rank of it, or forcing a negative value or — unless choices (a
// choice point forces a request index) — a source past its last rank.
func (d *Decisions) InRange(procs int, choices bool) error {
	if d == nil {
		return nil
	}
	if d.isNode() {
		return d.Clone().InRange(procs, choices)
	}
	for _, e := range d.entries {
		if e.rank < 0 || int(e.rank) >= procs || e.src < 0 || !choices && int(e.src) >= procs {
			return fmt.Errorf("core: decision r%d@%d→%d is out of range for %d ranks", e.rank, e.lc, e.src, procs)
		}
	}
	return nil
}

// Clone returns a deep copy, flat (interleaving results keep their
// reproducer).
func (d *Decisions) Clone() *Decisions {
	return d.CloneWithCapacity(0)
}

// CloneWithCapacity returns a flat deep copy that reserves room for extra
// additional decisions, so a caller about to Force a known number of entries
// (a reproducer pins every epoch of its run) never regrows it. A nil receiver
// yields a fresh empty set.
func (d *Decisions) CloneWithCapacity(extra int) *Decisions {
	if d.isNode() {
		f := d.flattenInto(new(Decisions))
		f.entries = slices.Grow(f.entries, extra)
		return f
	}
	var src []decision
	if d != nil {
		src = d.entries
	}
	return &Decisions{entries: append(make([]decision, 0, len(src)+extra), src...)}
}

// String renders the decisions deterministically, for logs and reproducers.
func (d *Decisions) String() string {
	if d.Empty() {
		return "{}"
	}
	if d.isNode() {
		return d.Clone().String()
	}
	// "12→3 " is seven bytes, and a rank's "r0:[" … "] " six more.
	b := make([]byte, 0, 10*len(d.entries)+8)
	b = append(b, '{')
	for i, e := range d.entries {
		switch {
		case i == 0 || d.entries[i-1].rank != e.rank:
			if i > 0 {
				b = append(b, "] "...)
			}
			b = append(b, 'r')
			b = strconv.AppendInt(b, int64(e.rank), 10)
			b = append(b, ":["...)
		default:
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, e.lc, 10)
		b = append(b, "→"...)
		b = strconv.AppendInt(b, int64(e.src), 10)
	}
	return string(append(b, "]}"...))
}

// MarshalJSON implements json.Marshaler. The on-disk shape is
// {"by_rank":{"<rank>":{"<lc>":src}}} (JSON object keys must be strings),
// emitted in numeric (rank, LC) order.
func (d *Decisions) MarshalJSON() ([]byte, error) {
	if d.isNode() {
		f := d.flattenInto(flatScratch.Get().(*Decisions))
		defer flatScratch.Put(f)
		return f.MarshalJSON()
	}
	b := make([]byte, 0, 12*len(d.entries)+16)
	b = append(b, `{"by_rank":{`...)
	for i, e := range d.entries {
		switch {
		case i == 0 || d.entries[i-1].rank != e.rank:
			if i > 0 {
				b = append(b, "},"...)
			}
			b = append(b, '"')
			b = strconv.AppendInt(b, int64(e.rank), 10)
			b = append(b, `":{`...)
		default:
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendUint(b, e.lc, 10)
		b = append(b, `":`...)
		b = strconv.AppendInt(b, int64(e.src), 10)
	}
	if len(d.entries) > 0 {
		b = append(b, '}')
	}
	return append(b, "}}"...), nil
}

// UnmarshalJSON implements json.Unmarshaler: a scanner over exactly the shape
// MarshalJSON emits — keys in any order, insignificant whitespace anywhere,
// null for the whole value or for by_rank meaning no decisions. Anything else
// (another member, an escaped or non-numeric key, a fractional source, an
// empty rank object, a key decided twice) is an error, not a guess.
func (d *Decisions) UnmarshalJSON(b []byte) error {
	s := decisionScanner{buf: b}
	// Every decision spends at least the six bytes of `"0":0,`.
	s.out = make([]decision, 0, len(b)/6)
	if err := s.value(); err != nil {
		return err
	}
	*d = Decisions{entries: s.out}
	if len(s.out) == 0 {
		d.entries = nil // the empty set has one form, NewDecisions's
	}
	return nil
}

// decisionScanner is UnmarshalJSON's cursor over its input.
type decisionScanner struct {
	buf   []byte
	pos   int
	out   []decision
	ranks int // rank objects scanned; each must be a distinct rank
}

// errorf reports malformed input at the current offset.
func (s *decisionScanner) errorf(format string, args ...any) error {
	return fmt.Errorf("core: decisions JSON offset %d: %s", s.pos, fmt.Sprintf(format, args...))
}

// space skips insignificant whitespace and returns the byte that follows (0
// at end of input).
func (s *decisionScanner) space() byte {
	for ; s.pos < len(s.buf); s.pos++ {
		switch s.buf[s.pos] {
		case ' ', '\t', '\n', '\r':
		default:
			return s.buf[s.pos]
		}
	}
	return 0
}

// expect consumes the byte c after any whitespace.
func (s *decisionScanner) expect(c byte) error {
	s.space()
	if !s.accept(c) {
		return s.errorf("want %q", c)
	}
	return nil
}

// accept advances over c if it is the next byte.
func (s *decisionScanner) accept(c byte) bool {
	if s.pos < len(s.buf) && s.buf[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// consume advances over lit if the input continues with it.
func (s *decisionScanner) consume(lit string) error {
	if !bytes.HasPrefix(s.buf[s.pos:], []byte(lit)) {
		return s.errorf("want %s", lit)
	}
	s.pos += len(lit)
	return nil
}

// members scans `{ "key": <member>, ... }`, calling member with the scanner
// positioned on each key's opening quote; member consumes key, colon and
// value. It reports how many members the object had.
func (s *decisionScanner) members(member func() error) (int, error) {
	if err := s.expect('{'); err != nil {
		return 0, err
	}
	if s.space() == '}' {
		s.pos++
		return 0, nil
	}
	for n := 1; ; n++ {
		s.space()
		if err := member(); err != nil {
			return 0, err
		}
		switch s.space() {
		case ',':
			s.pos++
		case '}':
			s.pos++
			return n, nil
		default:
			return 0, s.errorf("want ',' or '}'")
		}
	}
}

// value scans the whole input: null or the by_rank wrapper object.
func (s *decisionScanner) value() error {
	if s.space() == 'n' {
		if err := s.consume("null"); err != nil {
			return err
		}
	} else {
		seen := false
		if _, err := s.members(func() error {
			if seen || s.consume(`"by_rank"`) != nil {
				return s.errorf(`want the one member "by_rank"`)
			}
			seen = true
			if err := s.expect(':'); err != nil {
				return err
			}
			if s.space() == 'n' {
				return s.consume("null")
			}
			_, err := s.members(s.rank)
			return err
		}); err != nil {
			return err
		}
	}
	if s.space(); s.pos < len(s.buf) {
		return s.errorf("trailing data")
	}
	return s.finish()
}

// rank scans one `"<rank>":{"<lc>":src,...}` member.
func (s *decisionScanner) rank() error {
	if !s.accept('"') {
		return s.errorf("want a quoted rank")
	}
	rank, err := s.integer()
	if err != nil {
		return err
	}
	if !s.accept('"') {
		return s.errorf("want a decimal rank key")
	}
	if err := s.expect(':'); err != nil {
		return err
	}
	s.ranks++
	n, err := s.members(func() error {
		if !s.accept('"') {
			return s.errorf("want a quoted LC")
		}
		lc, ok := s.digits()
		if !ok || !s.accept('"') {
			return s.errorf("want a decimal LC key")
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		s.space()
		start := s.pos
		src, err := s.integer()
		if err != nil {
			return err
		}
		// A JSON number has no leading zeros (an object key may).
		if lead := bytes.TrimPrefix(s.buf[start:s.pos], []byte("-")); len(lead) > 1 && lead[0] == '0' {
			return s.errorf("source with a leading zero")
		}
		s.out = append(s.out, decision{rank: rank, lc: lc, src: src})
		return nil
	})
	if err == nil && n == 0 {
		// The set cannot hold a rank without decisions, and dropping one
		// silently would hide a second object for the same rank.
		return s.errorf("rank %d has no decisions", rank)
	}
	return err
}

// digits scans one or more decimal digits that fit a uint64.
func (s *decisionScanner) digits() (uint64, bool) {
	start := s.pos
	var v uint64
	for ; s.pos < len(s.buf); s.pos++ {
		c := s.buf[s.pos]
		if c < '0' || c > '9' {
			break
		}
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, s.pos > start
}

// integer scans an optionally negative decimal integer that fits an int32:
// the width of a rank and of a source.
func (s *decisionScanner) integer() (int32, error) {
	neg := s.accept('-')
	v, ok := s.digits()
	switch {
	case !ok:
		return 0, s.errorf("want a decimal integer")
	case !neg && v <= math.MaxInt32:
		return int32(v), nil
	case neg && v <= -math.MinInt32:
		return int32(-int64(v)), nil
	}
	return 0, s.errorf("integer out of range")
}

// finish sorts what was scanned and rejects a key or a rank given twice
// (encoding/json would keep whichever object came last; two spellings of one
// number — "1" and "01" — have no last).
func (s *decisionScanner) finish() error {
	slices.SortFunc(s.out, compareKey)
	distinct := 0
	for i, e := range s.out {
		switch {
		case i == 0 || s.out[i-1].rank != e.rank:
			distinct++
		case s.out[i-1].lc == e.lc:
			return fmt.Errorf("core: decisions JSON decides rank %d LC %d twice", e.rank, e.lc)
		}
	}
	if distinct != s.ranks {
		return fmt.Errorf("core: decisions JSON has %d rank objects for %d ranks", s.ranks, distinct)
	}
	return nil
}

// Save writes the decisions file (the artifact DAMPI's replays read).
func (d *Decisions) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return d.Write(f)
}

// Write serializes the decisions as JSON.
func (d *Decisions) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// LoadDecisions reads a decisions file.
func LoadDecisions(path string) (*Decisions, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDecisions(f)
}

// ReadDecisions deserializes decisions from JSON.
func ReadDecisions(r io.Reader) (*Decisions, error) {
	d := NewDecisions()
	if err := json.NewDecoder(r).Decode(d); err != nil {
		return nil, err
	}
	return d, nil
}
