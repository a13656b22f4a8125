// Package clock implements the logical-clock machinery DAMPI builds on:
// Lamport clocks (the scalable choice) and vector clocks (the precise but
// non-scalable alternative, kept for the completeness comparison in the
// paper's §II-C/§II-F).
//
// Update rules follow the paper. A process's Lamport clock is advanced
// explicitly at non-deterministic events (Tick); on receipt of a message the
// clock is merged with the sender's piggybacked value (Merge, a plain max —
// note that unlike the classic presentation there is no +1 on merge, matching
// Algorithm 1 of the paper: LCi = max(LCi, m.LC)). With these rules, an event
// causally after a wildcard-receive epoch always carries a strictly larger
// Lamport value than the epoch, so "m.LC < epoch" is a sound late-message
// test.
package clock

import "fmt"

// Lamport is a scalar logical clock. The zero value is a valid initial clock.
type Lamport struct {
	v uint64
}

// Value returns the current clock value.
func (l *Lamport) Value() uint64 { return l.v }

// Tick advances the clock by one and returns the value *before* the tick.
// DAMPI associates each wildcard receive with the pre-tick value (its epoch)
// and then increments, so every epoch on a process has a unique value.
func (l *Lamport) Tick() uint64 {
	e := l.v
	l.v++
	return e
}

// Merge folds a received clock value into the local clock: LC = max(LC, m).
func (l *Lamport) Merge(m uint64) {
	if m > l.v {
		l.v = m
	}
}

// Set overwrites the clock value. Used when a collective hands back the
// combined clock for this process.
func (l *Lamport) Set(v uint64) { l.v = v }

// Vector is a classic vector clock over n processes.
type Vector struct {
	me int
	c  []uint64
}

// NewVector returns a vector clock for process me in an n-process system.
func NewVector(n, me int) *Vector {
	if me < 0 || me >= n {
		panic(fmt.Sprintf("clock: NewVector rank %d out of range [0,%d)", me, n))
	}
	return &Vector{me: me, c: make([]uint64, n)}
}

// Len returns the number of components.
func (v *Vector) Len() int { return len(v.c) }

// Snapshot returns a copy of the current vector, suitable for piggybacking.
func (v *Vector) Snapshot() []uint64 {
	s := make([]uint64, len(v.c))
	copy(s, v.c)
	return s
}

// Tick increments the local component and returns a snapshot taken *before*
// the tick, mirroring Lamport.Tick: the snapshot identifies the epoch.
func (v *Vector) Tick() []uint64 {
	s := v.Snapshot()
	v.c[v.me]++
	return s
}

// Merge folds a received vector into the local one, component-wise max.
func (v *Vector) Merge(m []uint64) {
	if len(m) != len(v.c) {
		panic(fmt.Sprintf("clock: Merge vector length %d != %d", len(m), len(v.c)))
	}
	for i, x := range m {
		if x > v.c[i] {
			v.c[i] = x
		}
	}
}

// Order is the result of comparing two vector clocks.
type Order int

// Vector clock orderings. Concurrent means neither clock dominates.
const (
	Equal Order = iota
	Before
	After
	Concurrent
)

func (o Order) String() string {
	switch o {
	case Equal:
		return "equal"
	case Before:
		return "before"
	case After:
		return "after"
	case Concurrent:
		return "concurrent"
	}
	return fmt.Sprintf("Order(%d)", int(o))
}

// Compare returns the causal ordering of snapshot a relative to b:
// Before if a < b component-wise (with at least one strict), After if a > b,
// Equal if identical, Concurrent otherwise.
func Compare(a, b []uint64) Order {
	if len(a) != len(b) {
		panic(fmt.Sprintf("clock: Compare vector lengths %d != %d", len(a), len(b)))
	}
	le, ge := true, true
	for i := range a {
		if a[i] < b[i] {
			ge = false
		}
		if a[i] > b[i] {
			le = false
		}
	}
	switch {
	case le && ge:
		return Equal
	case le:
		return Before
	case ge:
		return After
	default:
		return Concurrent
	}
}

// CausallyAfter reports whether snapshot a is strictly causally after b.
func CausallyAfter(a, b []uint64) bool { return Compare(a, b) == After }
