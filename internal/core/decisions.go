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
	"sort"
	"strconv"
)

// Decisions is the Epoch Decisions file of the paper: for each rank, the
// forced source for each epoch (keyed by the rank's Lamport clock at the
// epoch) and the rank's guided epoch — the largest forced clock value, past
// which the rank reverts to SELF_RUN.
//
// The set is one slice sorted by (rank, LC) with no duplicate key: a decision
// prefix is cloned once per child task, rendered into every task key and
// moved over the wire three times per cluster replay, and all of those are a
// single linear pass over a sorted slice.
type Decisions struct {
	entries []decision
}

// decision forces one epoch to a communicator-local source.
type decision struct {
	rank int
	lc   uint64
	src  int
}

// compareKey orders decisions by (rank, LC).
func compareKey(a, b decision) int {
	if c := cmp.Compare(a.rank, b.rank); c != 0 {
		return c
	}
	return cmp.Compare(a.lc, b.lc)
}

// NewDecisions returns an empty decision set (pure self-run).
func NewDecisions() *Decisions {
	return &Decisions{}
}

// Empty reports whether no decisions are recorded.
func (d *Decisions) Empty() bool {
	return d == nil || len(d.entries) == 0
}

// search returns the position of (rank, lc) in the sorted entries, or where
// it would be inserted.
func (d *Decisions) search(rank int, lc uint64) (int, bool) {
	// Written out rather than slices.BinarySearchFunc: every wildcard of a
	// guided replay and every record of an expansion looks one key up, and
	// the comparison through a func value is most of a 25-entry search.
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

// Force records a forced source for an epoch, replacing any earlier one.
func (d *Decisions) Force(id EpochID, src int) {
	e := decision{rank: id.Rank, lc: id.LC, src: src}
	if n := len(d.entries); n == 0 || compareKey(d.entries[n-1], e) < 0 {
		d.entries = append(d.entries, e)
		return
	}
	i, found := d.search(id.Rank, id.LC)
	if found {
		d.entries[i].src = src
		return
	}
	d.entries = slices.Insert(d.entries, i, e)
}

// pin forces every completed record the set does not already decide to its
// observed choice — Force(rec.ID(), rec.Chosen) for each, the first of a
// repeated record winning — without a sorted insertion per record: a run's
// reproducer pins every epoch of its trace (3072 on 104.milc at 64 ranks).
// A trace is in commit order, ascending LC within a rank with the ranks
// interleaved, so the pins are counted per rank and each is then written
// straight to its sorted place; one sort repairs whatever that leaves out of
// order (decisions already present, a trace that breaks the pattern).
func (d *Decisions) pin(recs []*EpochRecord) {
	decided := Decisions{entries: d.entries}
	pins := func(rec *EpochRecord) bool {
		if rec.Chosen < 0 {
			return false // never completed; nothing to reproduce
		}
		_, ok := decided.Lookup(rec.Rank, rec.LC)
		return !ok
	}
	bucket := func(rank int) int {
		if rank < 0 || rank > len(recs) {
			return 0 // no sane index: left to the sort
		}
		return rank
	}
	next := make([]int, 0, 64) // next[b] is where bucket b's next pin goes
	for _, rec := range recs {
		if pins(rec) {
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
		if pins(rec) {
			b := bucket(rec.Rank)
			d.entries[next[b]] = decision{rank: rec.Rank, lc: rec.LC, src: rec.Chosen}
			next[b]++
		}
	}
	if !slices.IsSortedFunc(d.entries, compareKey) {
		slices.SortStableFunc(d.entries, compareKey)
	}
	d.entries = slices.CompactFunc(d.entries, func(a, b decision) bool { return compareKey(a, b) == 0 })
}

// Lookup returns the forced source for an epoch, if any.
func (d *Decisions) Lookup(rank int, lc uint64) (int, bool) {
	if d == nil {
		return 0, false
	}
	if i, found := d.search(rank, lc); found {
		return d.entries[i].src, true
	}
	return 0, false
}

// GuidedEpoch returns the rank's guided epoch: the largest forced LC, or
// -1 if the rank has no forced decisions (SELF_RUN from the start).
func (d *Decisions) GuidedEpoch(rank int) int64 {
	if d == nil {
		return -1
	}
	// The rank's last entry sits just before the first entry of a later rank.
	i := sort.Search(len(d.entries), func(i int) bool { return d.entries[i].rank > rank })
	if i == 0 || d.entries[i-1].rank != rank {
		return -1
	}
	return int64(d.entries[i-1].lc)
}

// Len returns the total number of forced decisions.
func (d *Decisions) Len() int {
	return len(d.entries)
}

// InRange reports the first decision a procs-rank world cannot replay: one
// naming no rank of it, or forcing a negative value or — unless choices (a
// choice point forces a request index) — a source past its last rank.
func (d *Decisions) InRange(procs int, choices bool) error {
	if d == nil {
		return nil
	}
	for _, e := range d.entries {
		if e.rank < 0 || e.rank >= procs || e.src < 0 || !choices && e.src >= procs {
			return fmt.Errorf("core: decision r%d@%d→%d is out of range for %d ranks", e.rank, e.lc, e.src, procs)
		}
	}
	return nil
}

// Clone returns a deep copy (interleaving results keep their reproducer).
func (d *Decisions) Clone() *Decisions {
	return d.CloneWithCapacity(0)
}

// CloneWithCapacity returns a deep copy that reserves room for extra
// additional decisions, so a caller about to Force a known number of entries
// (the expansion hot path clones once per child task) never regrows it. A nil
// receiver yields a fresh empty set.
func (d *Decisions) CloneWithCapacity(extra int) *Decisions {
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
	d.entries = s.out
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

// integer scans an optionally negative decimal integer that fits an int.
func (s *decisionScanner) integer() (int, error) {
	neg := s.accept('-')
	v, ok := s.digits()
	switch {
	case !ok:
		return 0, s.errorf("want a decimal integer")
	case !neg && v <= math.MaxInt:
		return int(v), nil
	case neg && v <= -math.MinInt:
		return int(-v), nil
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
