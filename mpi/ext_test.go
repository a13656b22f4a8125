package mpi

import (
	"errors"
	"fmt"
	"testing"
)

func TestSendrecvSymmetricExchange(t *testing.T) {
	const n = 6
	run(t, n, func(p *Proc) error {
		c := p.CommWorld()
		right := (p.Rank() + 1) % n
		left := (p.Rank() + n - 1) % n
		data, st, err := p.Sendrecv(right, 0, EncodeInt64(int64(p.Rank())), left, 0, c)
		if err != nil {
			return err
		}
		if st.Source != left {
			return fmt.Errorf("source %d, want %d", st.Source, left)
		}
		if got := DecodeInt64(data)[0]; got != int64(left) {
			return fmt.Errorf("got %d, want %d", got, left)
		}
		return nil
	})
}

func TestSendrecvWildcard(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		peer := 1 - p.Rank()
		_, st, err := p.Sendrecv(peer, 0, nil, AnySource, AnyTag, c)
		if err != nil {
			return err
		}
		if st.Source != peer {
			return fmt.Errorf("source %d, want %d", st.Source, peer)
		}
		return nil
	})
}

func TestWaitsome(t *testing.T) {
	run(t, 4, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() != 0 {
			if err := p.Barrier(c); err != nil {
				return err
			}
			return p.Send(0, 0, EncodeInt64(int64(p.Rank())), c)
		}
		reqs := make([]*Request, 3)
		var err error
		for i := range reqs {
			if reqs[i], err = p.Irecv(i+1, 0, c); err != nil {
				return err
			}
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		total := 0
		for total < 3 {
			idx, sts, err := p.Waitsome(reqs)
			if err != nil {
				return err
			}
			if len(idx) == 0 || len(idx) != len(sts) {
				return fmt.Errorf("Waitsome returned %d/%d", len(idx), len(sts))
			}
			total += len(idx)
		}
		// All consumed: Testany must report nothing left.
		if _, _, ok, err := p.Testany(reqs); err != nil {
			return err
		} else if ok {
			return errors.New("Testany true after all consumed")
		}
		return nil
	})
}

func TestTestany(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if err := p.Barrier(c); err != nil {
				return err
			}
			return p.Send(0, 0, []byte("x"), c)
		}
		req, err := p.Irecv(1, 0, c)
		if err != nil {
			return err
		}
		if _, _, ok, err := p.Testany([]*Request{req}); err != nil {
			return err
		} else if ok {
			return errors.New("Testany true before send")
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		for {
			idx, st, ok, err := p.Testany([]*Request{req})
			if err != nil {
				return err
			}
			if ok {
				if idx != 0 || st.Source != 1 {
					return fmt.Errorf("bad Testany result %d %+v", idx, st)
				}
				return nil
			}
		}
	})
}

// TestWaitanyWithNothingToWaitFor: a Waitany over no unconsumed request — an
// empty list, nil requests, consumed ones — returns at once with index -1
// (MPI_UNDEFINED), and a Waitsome with empty results, instead of parking the
// rank for good. No completion choice was made, so PostWaitany does not fire.
func TestWaitanyWithNothingToWaitFor(t *testing.T) {
	posts := 0
	hooks := &Hooks{PostWaitany: func(*Proc, *WaitanyOp, int, Status) { posts++ }}
	err := NewWorld(Config{Procs: 2, Hooks: hooks}).Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			return p.Send(0, 0, []byte("x"), c)
		}
		req, err := p.Irecv(1, 0, c)
		if err != nil {
			return err
		}
		if _, err := p.Wait(req); err != nil {
			return err
		}
		for _, reqs := range [][]*Request{nil, {nil, nil}, {req}, {nil, req}} {
			if idx, st, err := p.Waitany(reqs); err != nil || idx != -1 || st != (Status{}) {
				return fmt.Errorf("Waitany(%d requests) = %d %+v %v, want -1 at once", len(reqs), idx, st, err)
			}
			if idx, sts, err := p.Waitsome(reqs); err != nil || len(idx) != 0 || len(sts) != 0 {
				return fmt.Errorf("Waitsome(%d requests) = %v %v %v, want empty results", len(reqs), idx, sts, err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if posts != 0 {
		t.Errorf("PostWaitany fired %d times with nothing to wait for", posts)
	}
}

func TestCancelUnmatchedReceive(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		c := p.CommWorld()
		req, err := p.Irecv(0, 5, c)
		if err != nil {
			return err
		}
		ok, err := p.Cancel(req)
		if err != nil {
			return err
		}
		if !ok || !req.Cancelled() {
			return errors.New("cancel failed on unmatched receive")
		}
		// Wait on a cancelled request succeeds immediately.
		if _, err := p.Wait(req); err != nil {
			return err
		}
		// The queue slot is gone: a send now goes unexpected, and a fresh
		// receive picks it up.
		if err := p.Send(0, 5, []byte("later"), c); err != nil {
			return err
		}
		data, _, err := p.Recv(0, 5, c)
		if err != nil {
			return err
		}
		if string(data) != "later" {
			return fmt.Errorf("got %q", data)
		}
		return nil
	})
}

func TestCancelMatchedReceiveFails(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if err := p.Send(0, 0, []byte("x"), c); err != nil {
				return err
			}
			return p.Barrier(c)
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
		req, err := p.Irecv(1, 0, c) // matches instantly
		if err != nil {
			return err
		}
		ok, err := p.Cancel(req)
		if err != nil {
			return err
		}
		if ok {
			return errors.New("cancelled an already-matched receive")
		}
		_, err = p.Wait(req)
		return err
	})
}

func TestCancelSendIsNoop(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Isend(1, 0, []byte("x"), c)
			if err != nil {
				return err
			}
			ok, err := p.Cancel(req)
			if err != nil {
				return err
			}
			if ok {
				return errors.New("cancelled a send")
			}
			_, err = p.Wait(req)
			return err
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
}

func TestUseAfterFreeDetected(t *testing.T) {
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		dup, err := p.CommDup(c)
		if err != nil {
			return err
		}
		if err := p.CommFree(dup); err != nil {
			return err
		}
		var ue *UsageError
		if err := p.Send(1-p.Rank(), 0, nil, dup); !errors.As(err, &ue) {
			return fmt.Errorf("send on freed comm: %v", err)
		}
		if _, err := p.Irecv(1-p.Rank(), 0, dup); !errors.As(err, &ue) {
			return fmt.Errorf("irecv on freed comm: %v", err)
		}
		if _, _, err := p.Iprobe(AnySource, AnyTag, dup); !errors.As(err, &ue) {
			return fmt.Errorf("iprobe on freed comm: %v", err)
		}
		if err := p.Barrier(dup); !errors.As(err, &ue) {
			return fmt.Errorf("barrier on freed comm: %v", err)
		}
		// The world communicator is unaffected.
		return p.Barrier(c)
	})
}

func TestPersistentRequests(t *testing.T) {
	const rounds = 5
	run(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			ps := p.SendInit(1, 3, nil, c)
			for r := 0; r < rounds; r++ {
				if err := ps.SetData(EncodeInt64(int64(r))); err != nil {
					return err
				}
				req, err := ps.Start()
				if err != nil {
					return err
				}
				if _, err := p.Wait(req); err != nil {
					return err
				}
			}
			return nil
		}
		pr := p.RecvInit(AnySource, 3, c)
		for r := 0; r < rounds; r++ {
			req, err := pr.Start()
			if err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
			if got := DecodeInt64(req.Data())[0]; got != int64(r) {
				return fmt.Errorf("round %d: got %d", r, got)
			}
		}
		return nil
	})
}

func TestPersistentStartWhileActiveFails(t *testing.T) {
	run(t, 1, func(p *Proc) error {
		c := p.CommWorld()
		pr := p.RecvInit(0, 0, c)
		if _, err := pr.Start(); err != nil {
			return err
		}
		if _, err := pr.Start(); err == nil {
			return errors.New("double Start accepted")
		}
		if err := pr.SetData(nil); err == nil {
			return errors.New("SetData on active recv accepted")
		}
		// Clean up: send to self and complete.
		if err := p.Send(0, 0, nil, c); err != nil {
			return err
		}
		_, err := p.Wait(pr.active)
		return err
	})
}

func TestStartall(t *testing.T) {
	run(t, 3, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			prs := []*PersistentRequest{
				p.RecvInit(1, 0, c),
				p.RecvInit(2, 0, c),
			}
			reqs, err := p.Startall(prs)
			if err != nil {
				return err
			}
			_, err = p.Waitall(reqs)
			return err
		}
		return p.Send(0, 0, EncodeInt64(int64(p.Rank())), c)
	})
}
