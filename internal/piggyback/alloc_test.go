package piggyback

import "testing"

// The replay hot path encodes and decodes one clock per message; these guards
// pin the scratch-buffer forms at zero allocations so a regression shows up
// as a test failure, not a throughput mystery.

func TestAppendClockZeroAlloc(t *testing.T) {
	clock := []uint64{3, 1, 4, 1, 5, 9, 2, 6}
	buf := make([]byte, 0, 8*len(clock))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendClock(buf[:0], clock)
	})
	if allocs != 0 {
		t.Fatalf("AppendClock into a sized buffer: %v allocs/op, want 0", allocs)
	}
	if got := DecodeClockInto(nil, buf); len(got) != len(clock) || got[0] != 3 || got[7] != 6 {
		t.Fatalf("round-trip mismatch: %v", got)
	}
}

func TestDecodeClockIntoZeroAlloc(t *testing.T) {
	clock := []uint64{7, 2, 8, 1}
	b := AppendClock(nil, clock)
	dst := make([]uint64, 0, len(clock))
	allocs := testing.AllocsPerRun(100, func() {
		dst = DecodeClockInto(dst, b)
	})
	if allocs != 0 {
		t.Fatalf("DecodeClockInto with capacity: %v allocs/op, want 0", allocs)
	}
	for i := range clock {
		if dst[i] != clock[i] {
			t.Fatalf("round-trip mismatch at %d: %v", i, dst)
		}
	}
}

func TestAppendPackedZeroAlloc(t *testing.T) {
	clock := []uint64{1, 2, 3}
	payload := []byte("payload")
	buf := make([]byte, 0, 4+8*len(clock)+len(payload))
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendPacked(buf[:0], clock, payload)
	})
	if allocs != 0 {
		t.Fatalf("AppendPacked into a sized buffer: %v allocs/op, want 0", allocs)
	}
	dst := make([]uint64, 0, len(clock))
	allocs = testing.AllocsPerRun(100, func() {
		c, p, err := UnpackInto(dst, buf)
		if err != nil || len(c) != 3 || len(p) != len(payload) {
			t.Fatal("bad unpack")
		}
	})
	if allocs != 0 {
		t.Fatalf("UnpackInto with capacity: %v allocs/op, want 0", allocs)
	}
}
