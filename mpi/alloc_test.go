package mpi

import (
	"math"
	"runtime"
	"testing"

	"dampi/internal/race"
)

// pingPong is iters blocking round trips between ranks 0 and 1.
func pingPong(iters int) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.CommWorld()
		buf := []byte("x")
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := p.Send(1, 0, buf, c); err != nil {
					return err
				}
				if _, _, err := p.Recv(1, 0, c); err != nil {
					return err
				}
			} else {
				if _, _, err := p.Recv(0, 0, c); err != nil {
					return err
				}
				if err := p.Send(0, 0, buf, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// TestEagerSendAllocs guards the pooled eager-send/receive path: one
// round-trip (Send+Recv on each side) must stay within a small allocation
// budget now that envelopes, payload buffers and requests are pooled. The
// pre-pooling runtime spent ~32 allocations per round-trip, the pooled path
// 6 while every park built two closures, and 2 (the payload copies) now. The
// budget leaves headroom while still catching a de-pooling regression.
func TestEagerSendAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const iters = 5000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w := NewWorld(Config{Procs: 2})
	err := w.Run(pingPong(iters))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perOp := float64(after.Mallocs-before.Mallocs) / iters
	if perOp > 4 {
		t.Fatalf("eager round-trip costs %.1f allocs (budget 4; the baseline is the 2 payload copies, 6 when parking built closures, 32 before pooling)", perOp)
	}
	t.Logf("eager round-trip: %.2f allocs/op", perOp)
}

// TestWarmPingPongBytes is the byte-denominated twin of TestEagerSendAllocs:
// a malloc count cannot see an 8 KB slab per rank per world, a byte count
// can. On warm Pools a blocking round trip recycles its four requests and
// allocates only the two payload copies the receivers keep: parking a rank
// allocates nothing.
func TestWarmPingPongBytes(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const worlds, iters, budget = 50, 100, 64
	pools := NewPools(2)
	defer pools.Close()
	run := func() {
		if err := NewWorld(Config{Procs: 2, Pools: pools}).Run(pingPong(iters)); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < worlds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / (worlds * iters)
	t.Logf("warm round-trip: %.0f bytes/op, world spin-up included", perOp)
	if perOp > budget {
		t.Fatalf("warm round-trip allocates %.0f bytes (budget %d)", perOp, budget)
	}
}

// TestWarmWorldStartsNoCoroutine: on carried Pools a world is scheduled on
// the coroutines the previous one left parked, in the World object the
// previous one left parked. A clean empty 8-rank world then allocates
// nothing (3 objects when it built a World, a member list and a RunError;
// each rank started with iter.Pull would be 12 objects more, 99 in all when
// World.Run did that).
func TestWarmWorldStartsNoCoroutine(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	pools := NewPools(8)
	defer pools.Close()
	world := func() {
		if err := NewWorld(Config{Procs: 8, Pools: pools}).Run(func(*Proc) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	world()
	if got := testing.AllocsPerRun(100, world); got != 0 {
		t.Fatalf("a warm empty 8-rank world makes %.0f allocations, want 0", got)
	}
}

// TestColdNativeWorldPaysNothingForTools: a world on its own Pools that no
// tool layer asks for a tool context — the native side of every slowdown
// figure — allocates what it did before communicators had one: 7 984 bytes in
// 129 objects for an empty 8-rank world (7 976 in 128 once the per-member
// arrays of a communicator became one; 7 640 in 126 now that the world
// communicator's members are written in place and a clean run builds no
// RunError; 7 912 in 126 since each rank's request storage has room for the
// list of requests handed to the program, which RequestLeaks reads). The
// context's mailboxes exist from the first PMPI.Tool on, and the handle's
// three words fit where the second array's header was. The memory
// statistics count every goroutine's allocations, and one stray allocation of
// another goroutine in the process during a batch reads as the world's, so
// the figure is the least of three batches.
func TestColdNativeWorldPaysNothingForTools(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const worlds, batches, budgetBytes, budgetMallocs = 50, 3, 7984, 129
	world := func() {
		if err := NewWorld(Config{Procs: 8}).Run(func(*Proc) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	world()
	bytes, mallocs := math.Inf(1), math.Inf(1)
	for b := 0; b < batches; b++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < worlds; i++ {
			world()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, float64(after.TotalAlloc-before.TotalAlloc)/worlds)
		mallocs = min(mallocs, float64(after.Mallocs-before.Mallocs)/worlds)
	}
	t.Logf("cold empty 8-rank world: %.0f bytes, %.1f mallocs", bytes, mallocs)
	if bytes > budgetBytes || mallocs > budgetMallocs {
		t.Fatalf("a cold native 8-rank world allocates %.0f bytes in %.1f objects (budget %d in %d)", bytes, mallocs, budgetBytes, budgetMallocs)
	}
}

// TestRequestSlabCarriesAcrossWorlds: a world whose ranks use only part of
// their request slab leaves the rest to the next world on the same Pools,
// which therefore allocates no slab at all.
func TestRequestSlabCarriesAcrossWorlds(t *testing.T) {
	const procs, held = 4, 10 // 2*held application-held requests per rank per world
	prog := func(p *Proc) error {
		c := p.CommWorld()
		peer := p.Rank() ^ 1
		var reqs []*Request
		for i := 0; i < held; i++ {
			r, err := p.Irecv(peer, i, c)
			if err != nil {
				return err
			}
			s, err := p.Isend(peer, i, []byte{byte(i)}, c)
			if err != nil {
				return err
			}
			reqs = append(reqs, r, s)
		}
		_, err := p.Waitall(reqs)
		return err
	}
	pools := NewPools(procs)
	defer pools.Close()
	for world := 1; world <= 3; world++ {
		if err := NewWorld(Config{Procs: procs, Pools: pools}).Run(prog); err != nil {
			t.Fatal(err)
		}
		for rank := range pools.ranks {
			if got, want := len(pools.ranks[rank].reqSlab), reqSlabSize-world*2*held; got != want {
				t.Fatalf("after world %d rank %d has %d slab entries left, want %d (one slab, continued)", world, rank, got, want)
			}
		}
	}
}

// TestGetBufKeepsTooSmallBuffer: an oversize request must not cost the
// freelist a buffer.
func TestGetBufKeepsTooSmallBuffer(t *testing.T) {
	pl := NewPools(1)
	pl.putBuf(make([]byte, 0, 8))
	pl.putBuf(make([]byte, 0, 8))
	if b := pl.getBuf(64); cap(b) < 64 {
		t.Fatalf("getBuf(64) returned capacity %d", cap(b))
	}
	if len(pl.bufs) != 2 {
		t.Fatalf("oversize getBuf left %d pooled buffers, want 2", len(pl.bufs))
	}
	if b := pl.getBuf(8); cap(b) != 8 || len(pl.bufs) != 1 {
		t.Fatalf("fitting getBuf: capacity %d, %d buffers left; want 8 and 1", cap(b), len(pl.bufs))
	}
}

// TestClockTrafficRecyclesWhicheverWayItFlows: a payload copy is taken by the
// sender and handed back by the receiver, so traffic that flows one way only
// — rank 0's clocks to rank 1, as a piggyback layer sends them, and nothing
// back — must still find its buffers on the next world. Per-rank lists could
// not: the sender's drained while the receiver's overflowed, and every world
// paid one allocation per message.
func TestClockTrafficRecyclesWhicheverWayItFlows(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const msgs = 200
	word := make([]byte, 8)
	prog := func(p *Proc) error {
		m := p.PMPI()
		tc, err := m.Tool(p.CommWorld())
		if err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			if p.Rank() == 0 {
				if err := m.Send(1, 0, word, tc); err != nil {
					return err
				}
				continue
			}
			r, err := m.Irecv(0, 0, tc)
			if err != nil {
				return err
			}
			if _, err := m.Wait(r); err != nil {
				return err
			}
			r.Release()
			r.Free()
		}
		return nil
	}
	pools := NewPools(2)
	defer pools.Close()
	world := func() {
		if err := NewWorld(Config{Procs: 2, Pools: pools}).Run(prog); err != nil {
			t.Fatal(err)
		}
	}
	world()
	if got := testing.AllocsPerRun(20, world); got != 0 {
		t.Fatalf("a warm world sending %d one-way clock messages makes %.0f allocations, want 0", msgs, got)
	}
}

// TestWaitanyOpIsScratch: the WaitanyOp a Waitany or Testany hands the tool
// layer is per-rank scratch, like SendOp, RecvOp and ProbeOp. A warm world
// whose tool installs PreWaitany allocates exactly what it does without one,
// so no call allocates a descriptor (each of the 100 calls allocated one when
// the op was built per call for a choice-point tool).
func TestWaitanyOpIsScratch(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const calls = 100
	prog := func(p *Proc) error {
		c := p.CommWorld()
		var reqs [1]*Request
		for i := 0; i < calls; i++ {
			var err error
			if reqs[0], err = p.Irecv(0, 0, c); err != nil {
				return err
			}
			if err := p.Send(0, 0, nil, c); err != nil {
				return err
			}
			if i%2 == 0 {
				_, _, err = p.Waitany(reqs[:])
			} else {
				_, _, _, err = p.Testany(reqs[:])
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	allocs := func(hooks *Hooks) float64 {
		pools := NewPools(1)
		defer pools.Close()
		world := func() {
			if err := NewWorld(Config{Procs: 1, Hooks: hooks, Pools: pools}).Run(prog); err != nil {
				t.Fatal(err)
			}
		}
		world()
		return testing.AllocsPerRun(20, world)
	}
	without := allocs(&Hooks{})
	with := allocs(&Hooks{PreWaitany: func(*Proc, *WaitanyOp) {}})
	if with != without {
		t.Fatalf("%d Waitany/Testany calls make %.0f allocations with a PreWaitany hook, %.0f without", calls, with, without)
	}
}
