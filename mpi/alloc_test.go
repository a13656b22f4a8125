package mpi

import (
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
// the coroutines the previous one left parked. An empty 8-rank world then
// allocates its World, its member list and its RunError, and nothing per
// rank; each rank started with iter.Pull would be 12 objects more (99 in all
// when World.Run did that).
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
	if got := testing.AllocsPerRun(100, world); got > 3 {
		t.Fatalf("a warm empty 8-rank world makes %.0f allocations, want 3", got)
	}
}

// TestColdNativeWorldPaysNothingForTools: a world on its own Pools that no
// tool layer asks for a tool context — the native side of every slowdown
// figure — allocates what it did before communicators had one: 7 984 bytes in
// 129 objects for an empty 8-rank world (7 976 in 128 now: the per-member
// arrays of a communicator became one). The context's mailboxes exist from
// the first PMPI.Tool on, and the handle's three words fit where the second
// array's header was.
func TestColdNativeWorldPaysNothingForTools(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	const worlds, budgetBytes, budgetMallocs = 50, 7984, 129
	world := func() {
		if err := NewWorld(Config{Procs: 8}).Run(func(*Proc) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	world()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < worlds; i++ {
		world()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / worlds
	mallocs := float64(after.Mallocs-before.Mallocs) / worlds
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
	var rp rankPool
	rp.putBuf(make([]byte, 0, 8))
	rp.putBuf(make([]byte, 0, 8))
	if b := rp.getBuf(64); cap(b) < 64 {
		t.Fatalf("getBuf(64) returned capacity %d", cap(b))
	}
	if len(rp.bufs) != 2 {
		t.Fatalf("oversize getBuf left %d pooled buffers, want 2", len(rp.bufs))
	}
	if b := rp.getBuf(8); cap(b) != 8 || len(rp.bufs) != 1 {
		t.Fatalf("fitting getBuf: capacity %d, %d buffers left; want 8 and 1", cap(b), len(rp.bufs))
	}
}
