package mpi

import (
	"errors"
	"testing"
)

func expectDeadlock(t *testing.T, n int, program func(p *Proc) error) *DeadlockError {
	t.Helper()
	w := NewWorld(Config{Procs: n})
	err := w.Run(program)
	if err == nil {
		t.Fatal("expected deadlock, run succeeded")
	}
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	return d
}

func TestDeadlockRecvWithoutSend(t *testing.T) {
	d := expectDeadlock(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			_, _, err := p.Recv(1, 0, c)
			return err
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
	if len(d.BlockedAt) != 2 {
		t.Fatalf("blocked map %v", d.BlockedAt)
	}
}

func TestDeadlockOneRankFinishedOtherStuck(t *testing.T) {
	d := expectDeadlock(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return nil // finishes immediately
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
	if _, ok := d.BlockedAt[1]; !ok || len(d.BlockedAt) != 1 {
		t.Fatalf("blocked map %v", d.BlockedAt)
	}
}

func TestDeadlockPartialBarrier(t *testing.T) {
	expectDeadlock(t, 3, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 2 {
			return nil // never joins the barrier
		}
		return p.Barrier(c)
	})
}

func TestDeadlockSsendNoReceiver(t *testing.T) {
	expectDeadlock(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return p.Ssend(1, 0, []byte("x"), c)
		}
		return nil
	})
}

func TestDeadlockWrongTag(t *testing.T) {
	// Classic heisenbug shape: message sent with one tag, receive posted on
	// another — an eager send completes, the receive hangs.
	d := expectDeadlock(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return p.Send(1, 1, []byte("x"), c)
		}
		_, _, err := p.Recv(0, 2, c)
		return err
	})
	if _, ok := d.BlockedAt[1]; !ok {
		t.Fatalf("rank 1 should be the blocked one: %v", d.BlockedAt)
	}
}

func TestDeadlockProbeNeverSatisfied(t *testing.T) {
	expectDeadlock(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			_, err := p.Probe(0, 0, c)
			return err
		}
		return nil
	})
}

func TestNoFalseDeadlockUnderLoad(t *testing.T) {
	// Heavy traffic with barriers must never trip the detector.
	const n = 32
	run(t, n, func(p *Proc) error {
		c := p.CommWorld()
		for round := 0; round < 20; round++ {
			peer := (p.Rank() + round + 1) % n
			req, err := p.Irecv(AnySource, round, c)
			if err != nil {
				return err
			}
			if err := p.Send(peer, round, nil, c); err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
			if err := p.Barrier(c); err != nil {
				return err
			}
		}
		return nil
	})
}

func TestBlockedRanksVisibleMidRun(t *testing.T) {
	// Not a deadlock: verify the runtime can report who is blocked.
	w := NewWorld(Config{Procs: 2})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			// Wait until rank 1 is blocked in its Recv, then release it. The
			// observer yields through an MPI poll: a loop without an MPI call
			// would keep the only turn.
			for {
				br := w.BlockedRanks()
				if len(br) == 1 && br[0] == 1 {
					break
				}
				if _, _, err := p.Iprobe(AnySource, AnyTag, c); err != nil {
					return err
				}
			}
			return p.Send(1, 0, []byte("release"), c)
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

// TestDeadlockReportGolden: with a fixed schedule a deadlock report is one
// string per program. A collective two of four ranks entered, a third rank
// in a receive nobody answers, a fourth probing: every park description, none
// built before the deadlock fired.
func TestDeadlockReportGolden(t *testing.T) {
	d := expectDeadlock(t, 4, func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 2:
			_, _, err := p.Recv(AnySource, 7, c)
			return err
		case 3:
			req, err := p.Issend(2, 8, []byte("x"), c)
			if err != nil {
				return err
			}
			if _, err := p.Probe(0, AnyTag, c); err != nil {
				return err
			}
			_, err = p.Wait(req)
			return err
		}
		_, err := p.Allreduce(c, EncodeInt64(1), SumInt64)
		return err
	})
	const want = `rank 0: Allreduce(Comm(world#0 rank 0/4)) [2/4 arrived]
rank 1: Allreduce(Comm(world#0 rank 1/4)) [2/4 arrived]
rank 2: Wait(recv peer=-1 tag=7 Comm(world#0 rank 2/4))
rank 3: Probe(src=0, tag=*, Comm(world#0 rank 3/4))
`
	if got := d.Detail(); got != want {
		t.Errorf("deadlock report:\n%s\nwant:\n%s", got, want)
	}
}
