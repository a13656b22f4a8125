package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// fanIn is the probe world of the runner tests: every rank but 0 sends its
// rank to rank 0, which receives with AnySource, and the world ends in a
// barrier. It returns the program and the order rank 0 matched the senders
// in — the observable a stale stack, a stale Proc or a wrong schedule would
// change.
func fanIn() (prog func(p *Proc) error, order *[]int) {
	order = new([]int)
	return func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			if err := p.Send(0, 0, []byte{byte(p.Rank())}, c); err != nil {
				return err
			}
			return p.Barrier(c)
		}
		for i := 1; i < p.Size(); i++ {
			data, st, err := p.Recv(AnySource, 0, c)
			if err != nil {
				return err
			}
			if int(data[0]) != st.Source {
				return fmt.Errorf("payload %d from rank %d", data[0], st.Source)
			}
			*order = append(*order, st.Source)
		}
		return p.Barrier(c)
	}, order
}

// recvFromNobody parks every rank but the given one in a receive that is
// never matched; that rank does what the test is about.
func recvFromNobody(except int, do func(p *Proc) error) func(p *Proc) error {
	return func(p *Proc) error {
		if p.Rank() == except {
			return do(p)
		}
		_, _, err := p.Recv((p.Rank()+1)%p.Size(), 7, p.CommWorld())
		return err
	}
}

// TestReusedRunnerIsIndistinguishableFromFresh drives one Pools through every
// way a world can end and through worlds of different sizes: the rank
// coroutines it carries must serve each world as fresh ones would, and the
// clean world at the end must schedule exactly as the clean world at the
// start did.
func TestReusedRunnerIsIndistinguishableFromFresh(t *testing.T) {
	pools := NewPools(4)
	defer pools.Close()
	world := func(procs int, prog func(p *Proc) error) error {
		return NewWorld(Config{Procs: procs, Pools: pools}).Run(prog)
	}
	clean := func(procs int) string {
		t.Helper()
		prog, order := fanIn()
		if err := world(procs, prog); err != nil {
			t.Fatalf("clean %d-rank world: %v", procs, err)
		}
		return fmt.Sprint(*order)
	}
	parked := func(rank int) *runner { return pools.runners[rank] }

	first := clean(4)
	r0 := parked(0)
	if r0 == nil || r0.proc != nil {
		t.Fatalf("after a world rank 0's runner is %+v, want parked and holding no Proc", r0)
	}

	var re *RunError
	if err := world(4, recvFromNobody(-1, nil)); !errors.As(err, &re) || re.Deadlock == nil {
		t.Fatalf("deadlocked world: %v", err)
	}
	boom := errors.New("boom")
	err := world(4, recvFromNobody(2, func(p *Proc) error { p.Abort(boom); return nil }))
	if !errors.As(err, &re) || !errors.Is(re.Aborted, boom) {
		t.Fatalf("aborted world: %v", err)
	}
	err = world(4, recvFromNobody(1, func(p *Proc) error { panic("rank 1 gives up") }))
	if !errors.As(err, &re) || len(re.RankErrors) == 0 || !strings.Contains(re.RankErrors[0].Error(), "rank 1 gives up") {
		t.Fatalf("world with a panicking rank: %v", err)
	}
	if parked(0) != r0 {
		t.Fatal("a failed world replaced rank 0's runner; every rank of a failed world returns, so its coroutine is reusable")
	}

	// A rank that calls runtime.Goexit (t.FailNow inside a program) takes
	// the goroutine that called Run with it. The ranks still parked inside
	// that world must be unwound — stopping them used to spin in block — and
	// the Pools must come out with no runner left, dead or mid-world.
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		world(4, recvFromNobody(3, func(p *Proc) error { runtime.Goexit(); return nil }))
		t.Error("Run returned although a rank called Goexit")
	}()
	<-exited
	for rank, rn := range pools.runners {
		if rn != nil {
			t.Fatalf("after a Goexit rank %d still has a runner", rank)
		}
	}

	clean(4)
	eight := clean(8)
	if got := clean(4); got != first {
		t.Fatalf("4-rank world after an 8-rank one matched %s, the first matched %s", got, first)
	}
	if parked(7) == nil {
		t.Fatal("the 8-rank world's upper runners did not stay parked under a 4-rank world")
	}
	if got := clean(8); got != eight {
		t.Fatalf("second 8-rank world matched %s, the first %s", got, eight)
	}

	pools.Close()
	pools.Close()
	if got := clean(4); got != first {
		t.Fatalf("world on closed-and-reused Pools matched %s, the first matched %s", got, first)
	}
}

// TestGoexitInARankEndsTheWorld is Trap 2 on a world that owns its Pools: the
// goroutine that called Run exits, and with it every rank coroutine.
func TestGoexitInARankEndsTheWorld(t *testing.T) {
	baseline := runtime.NumGoroutine()
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		NewWorld(Config{Procs: 4}).Run(func(p *Proc) error {
			if p.Rank() == 2 {
				// Ranks 0 and 1 are parked in Recv, rank 3 has not started.
				runtime.Goexit()
			}
			_, _, err := p.Recv(2, 0, p.CommWorld())
			if !errors.Is(err, ErrAborted) {
				t.Errorf("rank %d: stopped receive returned %v, want ErrAborted", p.Rank(), err)
			}
			return err
		})
	}()
	<-exited
	// The helper goroutine itself may still be on its way out.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the world, %d before it", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestRunnerStoppedWhilePolling: a rank whose coroutine is stopped while it
// sits in an empty poll (not a park) gets the failure from that poll.
func TestRunnerStoppedWhilePolling(t *testing.T) {
	exited := make(chan struct{})
	var polled error
	go func() {
		defer close(exited)
		NewWorld(Config{Procs: 2}).Run(func(p *Proc) error {
			if p.Rank() == 1 {
				runtime.Goexit()
			}
			for polled == nil {
				_, _, polled = p.Iprobe(1, 0, p.CommWorld())
			}
			return polled
		})
	}()
	<-exited
	if !errors.Is(polled, ErrAborted) {
		t.Fatalf("stopped poll returned %v, want ErrAborted", polled)
	}
}
