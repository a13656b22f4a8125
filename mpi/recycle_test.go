package mpi

import (
	"errors"
	"testing"
)

// TestRequestFreeNoops pins the Free contract: only a consumed request that
// never reached the application is recycled; everything else is untouched.
func TestRequestFreeNoops(t *testing.T) {
	err := NewWorld(Config{Procs: 2}).Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if err := p.Send(0, 0, []byte("a"), c); err != nil {
				return err
			}
			return p.Send(0, 1, []byte("b"), c)
		}
		pooled := func() int { return len(p.pool.reqs) }
		base := pooled()

		// Unconsumed: Free must not recycle a request the runtime may still
		// complete.
		r, err := p.PMPI().Irecv(1, 0, c)
		if err != nil {
			return err
		}
		r.Free()
		if pooled() != base {
			t.Error("Free recycled an unconsumed request")
		}
		if _, err := p.PMPI().Wait(r); err != nil {
			return err
		}
		if string(r.Data()) != "a" {
			t.Errorf("request freed while unconsumed lost its payload: %q", r.Data())
		}

		// Consumed, runtime-internal: recycled exactly once.
		r.Free()
		if pooled() != base+1 {
			t.Errorf("Free of a consumed PMPI request pooled %d requests, want 1", pooled()-base)
		}
		r.Free()
		if pooled() != base+1 {
			t.Error("second Free pooled the request again")
		}

		// Application-held: never recycled, even once consumed.
		a, err := p.Irecv(1, 1, c)
		if err != nil {
			return err
		}
		if a != r {
			t.Error("Irecv did not reuse the freed request")
		}
		if _, err := p.Wait(a); err != nil {
			return err
		}
		a.Free()
		if pooled() != base {
			t.Error("Free recycled an application-held request")
		}
		if string(a.Data()) != "b" || a.Status().Tag != 1 {
			t.Errorf("application-held request damaged by Free: %q %+v", a.Data(), a.Status())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSkeletonReusedAfterFailedWorld: a world that dies with messages still
// queued, receives still posted, a synchronous send unmatched and a
// collective half-entered is parked like any other, and the next world on
// the same Pools starts from clean queues on the same storage.
func TestSkeletonReusedAfterFailedWorld(t *testing.T) {
	litter := func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			for tag := 0; tag < 5; tag++ {
				if err := p.Send(1, tag, []byte("stale"), c); err != nil {
					return err
				}
			}
			if _, err := p.Irecv(AnySource, 9, c); err != nil { // never matched
				return err
			}
			return p.Barrier(c) // half-entered forever
		case 1:
			return p.Ssend(2, 7, []byte("unmatched"), c)
		}
		_, _, err := p.Recv(0, 99, c)
		return err
	}
	failures := map[string]func(p *Proc) error{
		"deadlock": litter,
		"abort": func(p *Proc) error {
			if p.Rank() == 2 {
				// Let the others litter first: abort only once they are parked.
				for len(p.World().BlockedRanks()) < 2 {
					if _, _, err := p.Iprobe(0, 98, p.CommWorld()); err != nil {
						return err
					}
				}
				p.Abort(errors.New("boom"))
				return nil
			}
			return litter(p)
		},
	}
	clean := func(p *Proc) error {
		c := p.CommWorld()
		if _, found, err := p.Iprobe(AnySource, AnyTag, c); err != nil || found {
			t.Errorf("rank %d: a message of the previous world is visible (found=%v err=%v)", p.Rank(), found, err)
		}
		dup, err := p.CommDup(c)
		if err != nil {
			return err
		}
		if p.Rank() != 0 {
			return p.Send(0, p.Rank(), []byte{byte(p.Rank())}, dup)
		}
		seen := 0
		for i := 1; i < p.Size(); i++ {
			data, st, err := p.Recv(AnySource, AnyTag, dup)
			if err != nil {
				return err
			}
			if len(data) != 1 || int(data[0]) != st.Source || st.Tag != st.Source {
				t.Errorf("wildcard receive got %v %+v", data, st)
			}
			seen |= 1 << st.Source
		}
		if seen != 0b110 {
			t.Errorf("received from sources %b, want ranks 1 and 2", seen)
		}
		return nil
	}
	for name, fail := range failures {
		t.Run(name, func(t *testing.T) {
			pools := NewPools(3)
			defer pools.Close()
			w1 := NewWorld(Config{Procs: 3, Pools: pools})
			err := w1.Run(fail)
			var re *RunError
			if !errors.As(err, &re) || (re.Deadlock == nil && re.Aborted == nil) {
				t.Fatalf("first world: %v, want a deadlock or abort", err)
			}
			for round := 0; round < 2; round++ { // the second round reuses the dup as well
				w2 := NewWorld(Config{Procs: 3, Pools: pools})
				if w2 != w1 || w2.procs[0] != w1.procs[0] || w2.worldComm != w1.worldComm {
					t.Fatal("second world did not reuse the parked skeleton")
				}
				if err := w2.Run(clean); err != nil {
					t.Fatalf("reused world, round %d: %v", round, err)
				}
			}
		})
	}
}
