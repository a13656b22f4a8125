package core

import (
	"bytes"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestDecisionsBasics(t *testing.T) {
	d := NewDecisions()
	if !d.Empty() || d.Len() != 0 {
		t.Fatal("new decisions not empty")
	}
	if ge := d.GuidedEpoch(3); ge != -1 {
		t.Fatalf("GuidedEpoch on empty = %d, want -1", ge)
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
	if ge := d.GuidedEpoch(1); ge != 5 {
		t.Fatalf("GuidedEpoch(1) = %d, want 5", ge)
	}
	if ge := d.GuidedEpoch(0); ge != -1 {
		t.Fatalf("GuidedEpoch(0) = %d, want -1", ge)
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
	if nilD.GuidedEpoch(0) != -1 {
		t.Fatal("nil decisions guided epoch")
	}
}
