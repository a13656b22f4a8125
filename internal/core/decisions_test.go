package core

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestDecisionsBasics(t *testing.T) {
	d := NewDecisions()
	if !d.Empty() || d.Len() != 0 {
		t.Fatal("new decisions not empty")
	}
	if n := (*Decisions)(nil).Len(); n != 0 { // the root task's prefix
		t.Fatalf("nil Len = %d", n)
	}
	if ge := guidedEpoch(d, 3); ge != -1 {
		t.Fatalf("guided epoch on empty = %d, want -1", ge)
	}
	d.Force(EpochID{Rank: 1, LC: 0}, 2)
	d.Force(EpochID{Rank: 1, LC: 5}, 3)
	d.Force(EpochID{Rank: 2, LC: 7}, 0)
	if d.Len() != 3 || d.Empty() {
		t.Fatalf("Len = %d", d.Len())
	}
	if src, ok := d.Lookup(1, 5); !ok || src != 3 {
		t.Fatalf("Lookup(1,5) = %d,%v", src, ok)
	}
	if _, ok := d.Lookup(1, 4); ok {
		t.Fatal("Lookup hit for absent epoch")
	}
	if ge := guidedEpoch(d, 1); ge != 5 {
		t.Fatalf("guided epoch of rank 1 = %d, want 5", ge)
	}
	if ge := guidedEpoch(d, 0); ge != -1 {
		t.Fatalf("guided epoch of rank 0 = %d, want -1", ge)
	}
}

func TestDecisionsClone(t *testing.T) {
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 1}, 9)
	c := d.Clone()
	c.Force(EpochID{Rank: 0, LC: 2}, 8)
	if d.Len() != 1 || c.Len() != 2 {
		t.Fatalf("clone aliased: d=%d c=%d", d.Len(), c.Len())
	}
}

func TestDecisionsJSONRoundTrip(t *testing.T) {
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 0}, 1)
	d.Force(EpochID{Rank: 7, LC: 42}, 3)
	var buf bytes.Buffer
	if err := d.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip lost entries: %d", got.Len())
	}
	if src, ok := got.Lookup(7, 42); !ok || src != 3 {
		t.Fatalf("Lookup(7,42) after round trip = %d,%v", src, ok)
	}
}

func TestDecisionsFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epoch_decisions.json")
	d := NewDecisions()
	d.Force(EpochID{Rank: 3, LC: 9}, 4)
	if err := d.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDecisions(path)
	if err != nil {
		t.Fatal(err)
	}
	if src, ok := got.Lookup(3, 9); !ok || src != 4 {
		t.Fatalf("file round trip = %d,%v", src, ok)
	}
}

// TestDecisionsSaveReportsAFailedWrite: a reproducer that cannot be written
// whole is an error, not a truncated file.
func TestDecisionsSaveReportsAFailedWrite(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full here:", err)
	}
	d := NewDecisions()
	d.Force(EpochID{Rank: 3, LC: 9}, 4)
	if err := d.Save("/dev/full"); err == nil {
		t.Error("Save to a full device returned nil")
	}
	if err := (&RunTrace{}).Save("/dev/full"); err == nil {
		t.Error("RunTrace.Save to a full device returned nil")
	}
}

func TestDecisionsQuickRoundTrip(t *testing.T) {
	f := func(entries map[uint8]map[uint8]uint8) bool {
		d := NewDecisions()
		for r, m := range entries {
			for lc, src := range m {
				d.Force(EpochID{Rank: int(r), LC: uint64(lc)}, int(src))
			}
		}
		var buf bytes.Buffer
		if err := d.Write(&buf); err != nil {
			return false
		}
		got, err := ReadDecisions(&buf)
		if err != nil {
			return false
		}
		if got.Len() != d.Len() {
			return false
		}
		return got.String() == d.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionsString(t *testing.T) {
	d := NewDecisions()
	if d.String() != "{}" {
		t.Fatalf("empty string = %q", d.String())
	}
	d.Force(EpochID{Rank: 1, LC: 2}, 3)
	if d.String() == "{}" || d.String() == "" {
		t.Fatal("non-empty decisions render empty")
	}
	var nilD *Decisions
	if !nilD.Empty() {
		t.Fatal("nil decisions not empty")
	}
	if _, ok := nilD.Lookup(0, 0); ok {
		t.Fatal("nil decisions lookup hit")
	}
	if guidedEpoch(nilD, 0) != -1 {
		t.Fatal("nil decisions guided epoch")
	}
}

// TestDecisionsRefuseWhatDoesNotFit: a rank or a source outside int32 is
// never truncated — Force panics and leaves the set as it was, and Lookup
// does not find the decision the truncated key would name.
func TestDecisionsRefuseWhatDoesNotFit(t *testing.T) {
	d := NewDecisions()
	d.Force(EpochID{Rank: 0, LC: 1}, 2)
	for _, c := range []struct{ rank, src int }{
		{1 << 31, 0}, {-1<<31 - 1, 0}, {1 << 32, 0}, {0, 1 << 31}, {0, -1<<31 - 1}, {0, 1<<32 + 2},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Force(r%d, src %d) did not panic", c.rank, c.src)
				}
			}()
			d.Force(EpochID{Rank: c.rank, LC: 1}, c.src)
		}()
	}
	if got := d.String(); got != "{r0:[1→2]}" {
		t.Errorf("a refused Force changed the set to %s", got)
	}
	if _, ok := d.Lookup(1<<32, 1); ok {
		t.Error("Lookup(2³², 1) found rank 0's decision")
	}
}

// guidedEpoch is a rank's guided epoch as the replaying rank finds it: the
// LC of the last decision of its run of the set, or -1 if it has none.
func guidedEpoch(d *Decisions, rank int) int64 {
	ds := d.ofRank(rank)
	if len(ds) == 0 {
		return -1
	}
	return int64(ds[len(ds)-1].lc)
}

// TestDecisionsWithin: Within is the subset relation of the map form, on
// random pairs drawn from a small key space (so pairs overlap often), and a
// nil or empty set is within any while nothing non-empty is within one.
func TestDecisionsWithin(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	draw := func() (*Decisions, *oracleDecisions) {
		d, o := NewDecisions(), &oracleDecisions{}
		for n := rng.Intn(5); n > 0; n-- {
			id, src := EpochID{Rank: rng.Intn(2), LC: uint64(rng.Intn(3))}, rng.Intn(2)
			d.Force(id, src)
			o.force(id, src)
		}
		return d, o
	}
	within := func(a, b *oracleDecisions) bool {
		for rank, m := range a.ByRank {
			for lc, src := range m {
				if got, ok := b.ByRank[rank][lc]; !ok || got != src {
					return false
				}
			}
		}
		return true
	}
	hits := 0
	for i := 0; i < 5000; i++ {
		d, od := draw()
		e, oe := draw()
		want := within(od, oe)
		if got := d.Within(e); got != want {
			t.Fatalf("%s within %s = %v, want %v", d, e, got, want)
		}
		if want {
			hits++
		}
		if !d.Within(d) || !(*Decisions)(nil).Within(d) || !NewDecisions().Within(d) || d.Within(nil) != d.Empty() {
			t.Fatalf("%s: not within itself, or the empty set not within it, or within nil", d)
		}
	}
	if hits < 500 {
		t.Fatalf("only %d of 5000 random pairs nested: the draw does not test the true case", hits)
	}
}
