package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// TestTestallReportsFailedWorld: a rank polling Testall after a peer's Abort
// must get the failure, like Test, Testany and Iprobe. Testall used to return
// (nil, false, nil) without the failure check, so this program never ended.
func TestTestallReportsFailedWorld(t *testing.T) {
	cause := errors.New("peer gave up")
	w := NewWorld(Config{Procs: 2})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			if _, _, err := p.Recv(0, 0, c); err != nil {
				return err
			}
			p.Abort(cause)
			return nil
		}
		req, err := p.Irecv(1, 1, c) // never sent
		if err != nil {
			return err
		}
		if err := p.Send(1, 0, []byte("go ahead"), c); err != nil {
			return err
		}
		for {
			_, done, err := p.Testall([]*Request{req})
			if err != nil {
				return err
			}
			if done {
				return errors.New("Testall completed a receive nobody sent to")
			}
		}
	})
	var re *RunError
	if !errors.As(err, &re) || !errors.Is(re.Aborted, cause) {
		t.Fatalf("want the abort, got %v", err)
	}
}

// TestPollingCannotStarveSender: rank 0 polls for a message rank 1 sends only
// after hearing from rank 2. Under a bare lowest-rank-first pick the poller
// would get every turn; the poll rule hands the turn round the ring.
func TestPollingCannotStarveSender(t *testing.T) {
	polls := map[string]func(p *Proc, req *Request) (bool, error){
		"Iprobe": func(p *Proc, _ *Request) (bool, error) {
			_, found, err := p.Iprobe(1, 0, p.CommWorld())
			return found, err
		},
		"Test": func(p *Proc, req *Request) (bool, error) {
			_, done, err := p.Test(req)
			return done, err
		},
		"Testany": func(p *Proc, req *Request) (bool, error) {
			_, _, done, err := p.Testany([]*Request{req})
			return done, err
		},
		"Testall": func(p *Proc, req *Request) (bool, error) {
			_, done, err := p.Testall([]*Request{req})
			return done, err
		},
	}
	for name, poll := range polls {
		t.Run(name, func(t *testing.T) {
			run(t, 3, func(p *Proc) error {
				c := p.CommWorld()
				switch p.Rank() {
				case 0:
					var req *Request
					if name != "Iprobe" {
						var err error
						if req, err = p.Irecv(1, 0, c); err != nil {
							return err
						}
					}
					for {
						if ok, err := poll(p, req); err != nil || ok {
							return err
						}
					}
				case 1:
					if _, _, err := p.Recv(2, 0, c); err != nil {
						return err
					}
					return p.Send(0, 0, []byte("now"), c)
				}
				return p.Send(1, 0, []byte("first"), c)
			})
		})
	}
}

// TestPickRule pins the scheduler's choice on a world wider than one bitmap
// word: lowest runnable rank, and after an empty poll the next runnable rank
// round the ring, the poller itself only when nothing else can run.
func TestPickRule(t *testing.T) {
	w := NewWorld(Config{Procs: 130})
	for _, p := range w.procs {
		w.clearReady(p)
	}
	if got := w.pick(); got != -1 {
		t.Fatalf("empty world: pick = %d, want -1", got)
	}
	for _, r := range []int{3, 64, 129} {
		w.setReady(w.procs[r])
	}
	for _, tc := range []struct{ polled, want int }{
		{-1, 3}, {2, 3}, {3, 64}, {63, 64}, {64, 129}, {100, 129}, {129, 3},
	} {
		w.polled = tc.polled
		if got := w.pick(); got != tc.want {
			t.Errorf("after a poll by %d: pick = %d, want %d", tc.polled, got, tc.want)
		}
		if w.polled != -1 {
			t.Errorf("pick left polled = %d", w.polled)
		}
	}
	w.clearReady(w.procs[3])
	w.clearReady(w.procs[129])
	w.polled = 64
	if got := w.pick(); got != 64 {
		t.Errorf("lone poller: pick = %d, want 64", got)
	}
}

// TestWildcardArrivalOrderRepeats: the order in which a wildcard receiver
// sees racing senders is a function of the program, not of how many Ps there
// are or how the Go scheduler feels today.
func TestWildcardArrivalOrderRepeats(t *testing.T) {
	const n = 9
	order := func() []int {
		var got []int
		run(t, n, func(p *Proc) error {
			c := p.CommWorld()
			if p.Rank() != 4 {
				if err := p.Send(4, 0, nil, c); err != nil {
					return err
				}
				return p.Barrier(c)
			}
			for i := 0; i < n-1; i++ {
				_, st, err := p.Recv(AnySource, 0, c)
				if err != nil {
					return err
				}
				got = append(got, st.Source)
			}
			return p.Barrier(c)
		})
		return got
	}
	want := order()
	if len(want) != n-1 {
		t.Fatalf("received %v", want)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := 0; i < 20; i++ {
		if i == 10 {
			runtime.GOMAXPROCS(4)
		}
		if got := order(); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: arrival order %v, first run saw %v", i, got, want)
		}
	}
}

// TestParkUnparkIdle: the tool-layer seam. A hook parks its rank; the Idle
// hook, called when nothing is runnable, releases it; a world whose Idle hook
// releases nobody deadlocks with the hold's description.
func TestParkUnparkIdle(t *testing.T) {
	idles := 0
	release := true
	hooks := &Hooks{
		PreRecv: func(p *Proc, op *RecvOp) {
			if op.WasAnySource {
				_ = p.Park(fmt.Sprintf("held by test tool (tag %d)", op.Tag))
			}
		},
		Idle: func(w *World) {
			idles++
			if release {
				w.Unpark(0)
			}
			w.Unpark(1) // not parked by Park: a no-op
		},
	}
	prog := func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 1 {
			return p.Send(0, 5, []byte("x"), c)
		}
		_, _, err := p.Recv(AnySource, 5, c)
		return err
	}
	if err := NewWorld(Config{Procs: 2, Hooks: hooks}).Run(prog); err != nil {
		t.Fatalf("released run: %v", err)
	}
	if idles != 1 {
		t.Errorf("Idle ran %d times, want 1", idles)
	}
	release = false
	err := NewWorld(Config{Procs: 2, Hooks: hooks}).Run(prog)
	var d *DeadlockError
	if !errors.As(err, &d) {
		t.Fatalf("unreleased run: want a deadlock, got %v", err)
	}
	if got, want := d.Detail(), "rank 0: held by test tool (tag 5)\n"; got != want {
		t.Errorf("deadlock detail %q, want %q", got, want)
	}
}
