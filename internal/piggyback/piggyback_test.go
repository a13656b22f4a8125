package piggyback

import (
	"errors"
	"testing"
	"testing/quick"

	"dampi/mpi"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(vals []uint64) bool {
		got := DecodeClockInto(nil, AppendClock(nil, vals))
		if len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSeparateMessagePiggyback exercises the full separate-message
// mechanism directly: deterministic receives pair posted piggyback receives;
// wildcard receives defer theirs to completion (paper §II-D).
func TestSeparateMessagePiggyback(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Procs: 3})
	err := w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		r := NewRank(p)
		switch p.Rank() {
		case 1, 2:
			// Payload and piggyback to rank 0.
			if err := p.PMPI().Send(0, 5, []byte("payload"), c); err != nil {
				return err
			}
			req, err := r.SendClock(0, 5, c, []uint64{uint64(10 * p.Rank())})
			if err != nil {
				return err
			}
			return r.DrainSend(req)
		case 0:
			// Deterministic receive from 1: piggyback posted up front.
			pbReq, err := r.PostRecvClock(1, 5, c)
			if err != nil {
				return err
			}
			if _, _, err := p.PMPI().Recv(1, 5, c); err != nil {
				return err
			}
			clk, err := r.WaitClock(pbReq)
			if err != nil {
				return err
			}
			if clk[0] != 10 {
				t.Errorf("deterministic pb clock = %v, want [10]", clk)
			}
			// Wildcard receive: piggyback deferred until source known.
			_, st, err := p.PMPI().Recv(mpi.AnySource, 5, c)
			if err != nil {
				return err
			}
			clk2, err := r.RecvClockFrom(st.Source, st.Tag, c)
			if err != nil {
				return err
			}
			if clk2[0] != uint64(10*st.Source) {
				t.Errorf("wildcard pb clock = %v from %d", clk2, st.Source)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestClockContextFollowsTheCommunicator: a communicator the application
// creates carries clocks from its first message, with no call from the tool at
// its creation, and stops when its holder frees it.
func TestClockContextFollowsTheCommunicator(t *testing.T) {
	w := mpi.NewWorld(mpi.Config{Procs: 2})
	err := w.Run(func(p *mpi.Proc) error {
		r := NewRank(p)
		dup, _, err := p.PMPI().CommDup(p.CommWorld(), nil)
		if err != nil {
			return err
		}
		peer := 1 - p.Rank()
		req, err := r.SendClock(peer, 3, dup, []uint64{uint64(7 + p.Rank())})
		if err != nil {
			return err
		}
		clk, err := r.RecvClockFrom(peer, 3, dup)
		if err != nil {
			return err
		}
		if clk[0] != uint64(7+peer) {
			t.Errorf("rank %d: clock on the dup = %v, want [%d]", p.Rank(), clk, 7+peer)
		}
		if err := r.DrainSend(req); err != nil {
			return err
		}
		if _, err := p.PMPI().CommFree(dup, nil); err != nil {
			return err
		}
		var ue *mpi.UsageError
		if _, err := r.SendClock(peer, 3, dup, clk); !errors.As(err, &ue) {
			t.Errorf("rank %d: SendClock on a freed communicator: %v, want a UsageError", p.Rank(), err)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(clock []uint64, payload []byte) bool {
		c, p, err := UnpackInto(nil, AppendPacked(nil, clock, payload))
		if err != nil {
			return false
		}
		if len(c) != len(clock) || len(p) != len(payload) {
			return false
		}
		for i := range clock {
			if c[i] != clock[i] {
				return false
			}
		}
		for i := range payload {
			if p[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackRejectsGarbage(t *testing.T) {
	if _, _, err := UnpackInto(nil, []byte{1, 2}); err == nil {
		t.Error("short buffer accepted")
	}
	if _, _, err := UnpackInto(nil, []byte{255, 255, 0, 0}); err == nil {
		t.Error("truncated clock accepted")
	}
}
