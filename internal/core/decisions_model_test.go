package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"dampi/internal/race"
	"dampi/workloads/spec"
)

// oracleDecisions is the map form Decisions had before it became a sorted
// slice, kept with its reflective codec and its sort-and-fmt renderer exactly
// as they were: the reference the model test, the fixtures and
// FuzzDecisionsJSON compare the slice form against.
type oracleDecisions struct {
	ByRank map[int]map[uint64]int
}

type oracleJSON struct {
	ByRank map[string]map[string]int `json:"by_rank"`
}

func (d *oracleDecisions) force(id EpochID, src int) {
	if d.ByRank == nil {
		d.ByRank = make(map[int]map[uint64]int)
	}
	m := d.ByRank[id.Rank]
	if m == nil {
		m = make(map[uint64]int)
		d.ByRank[id.Rank] = m
	}
	m[id.LC] = src
}

func (d *oracleDecisions) guidedEpoch(rank int) int64 {
	best := int64(-1)
	for lc := range d.ByRank[rank] {
		if int64(lc) > best {
			best = int64(lc)
		}
	}
	return best
}

func (d *oracleDecisions) len() int {
	n := 0
	for _, m := range d.ByRank {
		n += len(m)
	}
	return n
}

func (d *oracleDecisions) String() string {
	if len(d.ByRank) == 0 {
		return "{}"
	}
	ranks := make([]int, 0, len(d.ByRank))
	for r := range d.ByRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	out := "{"
	for i, r := range ranks {
		if i > 0 {
			out += " "
		}
		lcs := make([]uint64, 0, len(d.ByRank[r]))
		for lc := range d.ByRank[r] {
			lcs = append(lcs, lc)
		}
		sort.Slice(lcs, func(i, j int) bool { return lcs[i] < lcs[j] })
		out += fmt.Sprintf("r%d:[", r)
		for j, lc := range lcs {
			if j > 0 {
				out += " "
			}
			out += fmt.Sprintf("%d→%d", lc, d.ByRank[r][lc])
		}
		out += "]"
	}
	return out + "}"
}

func (d *oracleDecisions) MarshalJSON() ([]byte, error) {
	out := oracleJSON{ByRank: make(map[string]map[string]int, len(d.ByRank))}
	for r, m := range d.ByRank {
		nm := make(map[string]int, len(m))
		for lc, src := range m {
			nm[fmt.Sprintf("%d", lc)] = src
		}
		out.ByRank[fmt.Sprintf("%d", r)] = nm
	}
	return json.Marshal(out)
}

func (d *oracleDecisions) UnmarshalJSON(b []byte) error {
	var in oracleJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	d.ByRank = make(map[int]map[uint64]int, len(in.ByRank))
	for rs, m := range in.ByRank {
		var r int
		if _, err := fmt.Sscanf(rs, "%d", &r); err != nil {
			return fmt.Errorf("core: bad rank key %q: %w", rs, err)
		}
		nm := make(map[uint64]int, len(m))
		for lcs, src := range m {
			var lc uint64
			if _, err := fmt.Sscanf(lcs, "%d", &lc); err != nil {
				return fmt.Errorf("core: bad lc key %q: %w", lcs, err)
			}
			nm[lc] = src
		}
		d.ByRank[r] = nm
	}
	return nil
}

// diffOracle describes how d differs from the oracle's set, or returns "".
func diffOracle(d *Decisions, want *oracleDecisions) string {
	if d.Len() != want.len() {
		return fmt.Sprintf("Len = %d, oracle %d", d.Len(), want.len())
	}
	for r, m := range want.ByRank {
		for lc, src := range m {
			if got, ok := d.Lookup(r, lc); !ok || got != src {
				return fmt.Sprintf("Lookup(%d,%d) = %d,%v, oracle %d", r, lc, got, ok, src)
			}
		}
	}
	if got, w := d.String(), want.String(); got != w {
		return fmt.Sprintf("String() = %s, oracle %s", got, w)
	}
	return ""
}

// TestDecisionsAgainstMapModel drives random Force sequences (overwrites,
// out-of-order keys, negative ranks) through the slice form and the map
// oracle and requires every read to agree after every step.
func TestDecisionsAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for round := 0; round < 200; round++ {
		d, model := NewDecisions(), &oracleDecisions{}
		for step, steps := 0, rng.Intn(40); step < steps; step++ {
			id := EpochID{Rank: rng.Intn(6) - 1, LC: uint64(rng.Intn(12))}
			src := rng.Intn(8)
			d.Force(id, src)
			model.force(id, src)
			if diff := diffOracle(d, model); diff != "" {
				t.Fatalf("round %d step %d after Force(%v,%d): %s", round, step, id, src, diff)
			}
		}
		if d.Empty() != (model.len() == 0) {
			t.Fatalf("round %d: Empty = %v with %d decisions", round, d.Empty(), model.len())
		}
		for r := -2; r < 7; r++ {
			if got, want := d.GuidedEpoch(r), model.guidedEpoch(r); got != want {
				t.Fatalf("round %d: GuidedEpoch(%d) = %d, oracle %d", round, r, got, want)
			}
			for lc := uint64(0); lc < 13; lc++ {
				_, got := d.Lookup(r, lc)
				if _, want := model.ByRank[r][lc]; got != want {
					t.Fatalf("round %d: Lookup(%d,%d) present = %v, oracle %v", round, r, lc, got, want)
				}
			}
		}
		// A clone is independent of its source in both directions.
		before := d.String()
		c := d.CloneWithCapacity(2)
		c.Force(EpochID{Rank: 2, LC: 99}, 1)
		c.Force(EpochID{Rank: -1, LC: 0}, 7)
		if d.String() != before {
			t.Fatalf("round %d: forcing a clone changed its source: %s -> %s", round, before, d)
		}
		cloned := c.String()
		d.Force(EpochID{Rank: 0, LC: 50}, 3)
		if c.String() != cloned {
			t.Fatalf("round %d: forcing the source changed its clone", round)
		}
	}
}

// TestPinMatchesPerRecordForce: the bulk pin is the per-record loop it
// replaced — skip never-completed records, keep what is already decided, the
// first of a repeated record wins — on record lists in no particular order.
func TestPinMatchesPerRecordForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 200; round++ {
		base := NewDecisions()
		for i, n := 0, rng.Intn(6); i < n; i++ {
			base.Force(EpochID{Rank: rng.Intn(4), LC: uint64(rng.Intn(8))}, rng.Intn(5))
		}
		var recs []*EpochRecord
		for i, n := 0, rng.Intn(20); i < n; i++ {
			// Rank -1 and ranks beyond the record count have no bucket of
			// their own; the repair sort must place them.
			recs = append(recs, &EpochRecord{Rank: rng.Intn(6) - 1, LC: uint64(rng.Intn(8)), Chosen: rng.Intn(5) - 1})
		}
		want := base.Clone()
		for _, rec := range recs {
			if rec.Chosen < 0 {
				continue
			}
			if _, ok := want.Lookup(rec.Rank, rec.LC); !ok {
				want.Force(rec.ID(), rec.Chosen)
			}
		}
		got := base.Clone()
		got.pin(recs)
		if got.String() != want.String() {
			t.Fatalf("round %d: pin = %s, per-record Force = %s", round, got, want)
		}
	}
}

// TestReproducerMatchesPerEpochForce: the reproducer RunContext.Run builds
// with one sort equals the one built by forcing each epoch in trace order, on
// the run with the most epochs in the tree (104.milc at 64 ranks).
func TestReproducerMatchesPerEpochForce(t *testing.T) {
	cfg := &ExplorerConfig{Procs: 64, Program: spec.Milc(spec.Config{Scale: 100, Iters: 4})}
	rc := NewRunContext(cfg)
	defer rc.Close()
	prefix := NewDecisions()
	for round := 0; round < 2; round++ {
		trace, res, err := rc.Run(prefix)
		if err != nil || res.Err != nil {
			t.Fatalf("run: %v / %v", err, res.Err)
		}
		want := prefix.Clone()
		for _, rec := range trace.Epochs {
			if rec.Chosen < 0 {
				continue
			}
			if _, ok := want.Lookup(rec.Rank, rec.LC); !ok {
				want.Force(rec.ID(), rec.Chosen)
			}
		}
		if want.Len() < 3000 {
			t.Fatalf("milc run pinned only %d epochs", want.Len())
		}
		if got := res.Decisions.String(); got != want.String() {
			t.Fatalf("round %d: reproducer differs from the per-epoch construction", round)
		}
		// Second round: replay under a forced prefix of the first hundred.
		prefix = NewDecisions()
		for _, rec := range trace.Epochs[:100] {
			prefix.Force(rec.ID(), rec.Chosen)
		}
	}
}

// parentDecisions is what the parent commit's Decisions.Save wrote into
// testdata/decisions_parent.json (string-ordered keys: "10" before "2").
var parentDecisions = map[EpochID]int{
	{Rank: 0, LC: 0}: 6, {Rank: 0, LC: 1}: 6, {Rank: 0, LC: 2}: 7, {Rank: 0, LC: 9}: 2,
	{Rank: 0, LC: 10}: 2, {Rank: 0, LC: 11}: 3, {Rank: 0, LC: 100}: 1,
	{Rank: 1, LC: 5}: -1,
	{Rank: 2, LC: 0}: 0, {Rank: 2, LC: 3}: 1,
	{Rank: 10, LC: 0}: 4, {Rank: 10, LC: 12}: 0,
	{Rank: 11, LC: 7}:    9,
	{Rank: 63, LC: 3072}: 62, {Rank: 63, LC: 18446744073709551615}: 0,
}

const parentDecisionsString = "{r0:[0→6 1→6 2→7 9→2 10→2 11→3 100→1] r1:[5→-1] r2:[0→0 3→1] r10:[0→4 12→0] r11:[7→9] r63:[3072→62 18446744073709551615→0]}"

// TestLoadsParentDecisionsFile: a decisions file written before the slice
// form loads unchanged, and what this version writes back differs from it
// only in key order.
func TestLoadsParentDecisionsFile(t *testing.T) {
	d, err := LoadDecisions("testdata/decisions_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(parentDecisions) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(parentDecisions))
	}
	for id, src := range parentDecisions {
		if got, ok := d.Lookup(id.Rank, id.LC); !ok || got != src {
			t.Errorf("Lookup(%d,%d) = %d,%v, want %d", id.Rank, id.LC, got, ok, src)
		}
	}
	if d.String() != parentDecisionsString {
		t.Errorf("String() = %s\nwant       %s", d, parentDecisionsString)
	}
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var again, parent oracleDecisions
	raw, err := os.ReadFile("testdata/decisions_parent.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &again); err != nil {
		t.Fatalf("the reflective decoder rejects what Write emits: %v", err)
	}
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}
	if again.String() != parent.String() {
		t.Errorf("rewritten file decodes to %s, the parent's to %s", &again, &parent)
	}
	if i, j := bytes.Index(buf.Bytes(), []byte(`"2": 7`)), bytes.Index(buf.Bytes(), []byte(`"10": 2`)); i < 0 || j < i {
		t.Errorf("Write does not emit keys in numeric order:\n%s", buf.Bytes())
	}
}

// TestDecisionsJSONRejects: malformed or ambiguous input is an error naming
// where, never a guess.
func TestDecisionsJSONRejects(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{``, "offset 0"},
		{`{"by_rank":{"0":{"1":2}}`, "offset 24"},
		{`{"by_rank":{"0":{"1":2}}} x`, "trailing data"},
		{"{\"by_rank\":{}}\x00", "trailing data"},
		{`{"by_rank":{"0":{"1":2.5}}}`, "offset 22"},
		{`{"by_rank":{"0":{"1":1e3}}}`, "offset 22"},
		{`{"by_rank":{"0":{"1":02}}}`, "leading zero"},
		{`{"by_rank":{"0":{"1":null}}}`, "decimal integer"},
		{`{"by_rank":{"0":{"1":"2"}}}`, "decimal integer"},
		{`{"by_rank":{"0":{"-1":2}}}`, "decimal LC key"},
		{`{"by_rank":{"0":{"1x":2}}}`, "decimal LC key"},
		{`{"by_rank":{"0":{"18446744073709551616":2}}}`, "decimal LC key"},
		{`{"by_rank":{"0":{"1":9223372036854775808}}}`, "out of range"},
		{`{"by_rank":{" 0":{"1":2}}}`, "decimal integer"},
		{`{"by_rank":{"0":{}}}`, "rank 0 has no decisions"},
		{`{"by_rank":{"0":null}}`, "offset 16: want '{'"},
		{`{"by_rank":{"0":{"1":2,"1":3}}}`, "rank 0 LC 1 twice"},
		{`{"by_rank":{"0":{"1":2,"01":3}}}`, "rank 0 LC 1 twice"},
		{`{"by_rank":{"0":{"1":2},"0":{"3":4}}}`, "2 rank objects for 1 ranks"},
		{`{"by_rank":{"1":{"1":2},"0":{"3":4},"01":{"5":6}}}`, "3 rank objects for 2 ranks"},
		{`{"by_rank":{},"by_rank":{}}`, `"by_rank"`},
		{`{"BY_RANK":{}}`, `"by_rank"`},
		{`{"by_rank":{},"extra":1}`, `"by_rank"`},
		{`[]`, "offset 0: want '{'"},
		{`nul`, "want null"},
	} {
		d := NewDecisions()
		d.Force(EpochID{Rank: 9, LC: 9}, 9)
		err := d.UnmarshalJSON([]byte(tc.in))
		if err == nil {
			t.Errorf("%q accepted as %s", tc.in, d)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not mention %q", tc.in, err, tc.want)
		}
		if d.Len() != 1 {
			t.Errorf("%q: a failed decode changed the receiver to %s", tc.in, d)
		}
	}
	for _, in := range []string{`null`, ` { } `, `{"by_rank":null}`, "{\n\t\"by_rank\" : { }\r\n}"} {
		d := NewDecisions()
		d.Force(EpochID{Rank: 9, LC: 9}, 9)
		if err := d.UnmarshalJSON([]byte(in)); err != nil || !d.Empty() {
			t.Errorf("%q: err %v, decoded %s; want the empty set", in, err, d)
		}
	}
}

// TestDecisionsCodecAllocs guards the representation's point: moving a
// depth-20 prefix through JSON or cloning it costs a fixed handful of
// allocations, not one per key.
func TestDecisionsCodecAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d := NewDecisions()
	for i := 0; i < 20; i++ {
		d.Force(EpochID{Rank: i % 8, LC: uint64(i + 1)}, (i*3)%8)
	}
	// The codec's own calls: a top-level json.Unmarshal adds four allocations
	// of its own (decodeState and its parse stack) whatever it decodes.
	into := NewDecisions()
	if n := testing.AllocsPerRun(100, func() {
		body, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := into.UnmarshalJSON(body); err != nil {
			t.Fatal(err)
		}
	}); n > 4 {
		t.Errorf("marshal + unmarshal of 20 decisions: %.0f allocations, budget 4", n)
	}
	if into.String() != d.String() {
		t.Fatalf("round trip = %s, want %s", into, d)
	}
	if n := testing.AllocsPerRun(100, func() { _ = d.Clone() }); n > 2 {
		t.Errorf("Clone of 20 decisions: %.0f allocations, budget 2", n)
	}
}

// FuzzDecisionsJSON is differential against the reflective decoder the
// scanner replaced: whatever the scanner accepts, the oracle accepts and
// decodes to the same set (the scanner may be stricter, never different), no
// input panics, and what either encoder emits for an accepted set decodes
// back to it.
func FuzzDecisionsJSON(f *testing.F) {
	parent, err := os.ReadFile("testdata/decisions_parent.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parent)
	// Every decision prefix in the checkpoint the parent commit wrote.
	ckp, err := os.ReadFile("../dexplore/testdata/checkpoint_parent.json")
	if err != nil {
		f.Fatal(err)
	}
	var frontier struct {
		Frontier []struct {
			Decisions json.RawMessage `json:"decisions"`
		} `json:"frontier"`
	}
	if err := json.Unmarshal(ckp, &frontier); err != nil {
		f.Fatal(err)
	}
	for _, task := range frontier.Frontier {
		f.Add([]byte(task.Decisions))
	}
	for _, seed := range []string{
		`null`, `{}`, `{"by_rank":null}`, `{"by_rank":{}}`,
		`{"by_rank":{"0":{"0":1,"10":2,"2":3},"-1":{"5":-7}}}`,
		`{"by_rank":{"1":{"2":3},"01":{"4":5}}}`,
		`{"by_rank":{"1":{"2":3,"2":4}}}`,
		`{"by_rank":{"1":{}},"x":[1,{"y":null}]}`,
		`{"by_rank":{"+1":{"0x2":3}}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := NewDecisions()
		if err := got.UnmarshalJSON(data); err != nil {
			return
		}
		var want oracleDecisions
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("scanner accepted %q as %s; the reflective decoder rejects it: %v", data, got, err)
		}
		if diff := diffOracle(got, &want); diff != "" {
			t.Fatalf("%q: %s", data, diff)
		}
		viaJSON := NewDecisions()
		if err := json.Unmarshal(data, viaJSON); err != nil || viaJSON.String() != got.String() {
			t.Fatalf("%q through encoding/json: %v, %s; direct %s", data, err, viaJSON, got)
		}
		mine, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		old, err := json.Marshal(&want)
		if err != nil {
			t.Fatal(err)
		}
		var indented bytes.Buffer
		if err := got.Write(&indented); err != nil {
			t.Fatal(err)
		}
		for _, emitted := range [][]byte{mine, old, indented.Bytes()} {
			back := NewDecisions()
			if err := json.Unmarshal(emitted, back); err != nil {
				t.Fatalf("emitted %s does not decode: %v", emitted, err)
			}
			if back.String() != got.String() {
				t.Fatalf("emitted %s decodes to %s, want %s", emitted, back, got)
			}
		}
	})
}
