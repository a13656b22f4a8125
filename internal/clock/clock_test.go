package clock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLamportBasics(t *testing.T) {
	var l Lamport
	if l.Value() != 0 {
		t.Fatal("zero value not 0")
	}
	if e := l.Tick(); e != 0 {
		t.Fatalf("first Tick returned %d, want pre-tick 0", e)
	}
	if l.Value() != 1 {
		t.Fatalf("after Tick value = %d", l.Value())
	}
	l.Merge(5)
	if l.Value() != 5 {
		t.Fatalf("Merge(5) -> %d", l.Value())
	}
	l.Merge(3) // smaller: no effect
	if l.Value() != 5 {
		t.Fatalf("Merge(3) -> %d", l.Value())
	}
	l.Set(9)
	if l.Value() != 9 {
		t.Fatalf("Set(9) -> %d", l.Value())
	}
}

func TestVectorBasics(t *testing.T) {
	v := NewVector(3, 1)
	if v.Len() != 3 {
		t.Fatal("wrong length")
	}
	snap := v.Tick()
	if snap[1] != 0 {
		t.Fatalf("Tick snapshot = %v, want pre-tick", snap)
	}
	if v.c[1] != 1 {
		t.Fatalf("component after tick = %d", v.c[1])
	}
	v.Merge([]uint64{4, 0, 2})
	want := []uint64{4, 1, 2}
	got := v.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after merge = %v, want %v", got, want)
		}
	}
	// Snapshot must be a copy.
	got[0] = 99
	if v.c[0] == 99 {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestCompareOrders(t *testing.T) {
	cases := []struct {
		a, b []uint64
		want Order
	}{
		{[]uint64{0, 0}, []uint64{0, 0}, Equal},
		{[]uint64{0, 1}, []uint64{1, 1}, Before},
		{[]uint64{2, 1}, []uint64{1, 1}, After},
		{[]uint64{1, 0}, []uint64{0, 1}, Concurrent},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !CausallyAfter([]uint64{2, 2}, []uint64{1, 2}) {
		t.Error("CausallyAfter false for dominating clock")
	}
	if CausallyAfter([]uint64{1, 0}, []uint64{0, 1}) {
		t.Error("CausallyAfter true for concurrent clocks")
	}
}

func TestOrderString(t *testing.T) {
	for _, o := range []Order{Equal, Before, After, Concurrent} {
		if o.String() == "" {
			t.Error("empty Order string")
		}
	}
}

// TestQuickCompareAntisymmetry: Compare(a,b) is the inverse of Compare(b,a).
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		av := []uint64{uint64(a[0]), uint64(a[1]), uint64(a[2]), uint64(a[3])}
		bv := []uint64{uint64(b[0]), uint64(b[1]), uint64(b[2]), uint64(b[3])}
		x, y := Compare(av, bv), Compare(bv, av)
		switch x {
		case Equal:
			return y == Equal
		case Before:
			return y == After
		case After:
			return y == Before
		default:
			return y == Concurrent
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestQuickLamportConsistentWithVector simulates random message exchanges in
// a 4-process system, maintaining both clock kinds, and checks the paper's
// §II-C property: vector-clock happens-before implies Lamport order
// (VC[a] < VC[b] => LC[a] < LC[b]) for the epoch events.
func TestQuickLamportConsistentWithVector(t *testing.T) {
	const procs = 4
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ls := make([]Lamport, procs)
		vs := make([]*Vector, procs)
		for i := range vs {
			vs[i] = NewVector(procs, i)
		}
		type event struct {
			lc uint64
			vc []uint64
		}
		var events []event
		for step := 0; step < 60; step++ {
			switch rng.Intn(3) {
			case 0: // non-deterministic event on a random process
				i := rng.Intn(procs)
				ls[i].Tick()
				vs[i].Tick()
				events = append(events, event{lc: ls[i].Value(), vc: vs[i].Snapshot()})
			case 1, 2: // message i -> j carrying both clocks
				i, j := rng.Intn(procs), rng.Intn(procs)
				if i == j {
					continue
				}
				ls[j].Merge(ls[i].Value())
				vs[j].Merge(vs[i].Snapshot())
			}
		}
		for x := range events {
			for y := range events {
				if Compare(events[x].vc, events[y].vc) == Before && events[x].lc >= events[y].lc {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickMergeIsMonotone: merging never decreases any component.
func TestQuickMergeIsMonotone(t *testing.T) {
	f := func(a, b [3]uint8) bool {
		v := NewVector(3, 0)
		v.Merge([]uint64{uint64(a[0]), uint64(a[1]), uint64(a[2])})
		before := v.Snapshot()
		v.Merge([]uint64{uint64(b[0]), uint64(b[1]), uint64(b[2])})
		after := v.Snapshot()
		return Compare(before, after) != After
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewVector out-of-range rank did not panic")
		}
	}()
	NewVector(2, 5)
}
