package mpi

import (
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// runLeaks runs program natively and returns the world's leak facts as text.
func runLeaks(t *testing.T, procs int, program func(p *Proc) error) (comms, reqs []string) {
	t.Helper()
	w := NewWorld(Config{Procs: procs})
	if err := w.Run(program); err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, l := range w.CommLeaks() {
		comms = append(comms, l.String())
	}
	for _, l := range w.RequestLeaks() {
		reqs = append(reqs, l.String())
	}
	return comms, reqs
}

func TestNoLeaksCleanProgram(t *testing.T) {
	comms, reqs := runLeaks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		dup, err := p.CommDup(c)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if err := p.Send(1, 0, []byte("x"), dup); err != nil {
				return err
			}
		} else {
			if _, _, err := p.Recv(0, 0, dup); err != nil {
				return err
			}
		}
		return p.CommFree(dup)
	})
	if len(comms) > 0 || len(reqs) > 0 {
		t.Fatalf("unexpected leaks: %v %v", comms, reqs)
	}
}

func TestCommLeakDetected(t *testing.T) {
	comms, reqs := runLeaks(t, 2, func(p *Proc) error {
		_, err := p.CommDup(p.CommWorld())
		return err // never freed
	})
	want := []string{
		"rank 0: communicator world.dup#1 never freed",
		"rank 1: communicator world.dup#1 never freed",
	}
	if !reflect.DeepEqual(comms, want) {
		t.Fatalf("comm leaks %q, want %q", comms, want)
	}
	if len(reqs) > 0 {
		t.Fatalf("spurious R-leak: %v", reqs)
	}
}

// TestSplitLeakDetected: a split never freed leaks on every member, and a
// rank the split excluded (negative color) holds nothing to free.
func TestSplitLeakDetected(t *testing.T) {
	comms, _ := runLeaks(t, 4, func(p *Proc) error {
		color := p.Rank() % 2
		if p.Rank() == 3 {
			color = -1
		}
		_, err := p.CommSplit(p.CommWorld(), color, 0)
		return err
	})
	want := []string{
		"rank 0: communicator world.split0#1 never freed",
		"rank 1: communicator world.split1#2 never freed",
		"rank 2: communicator world.split0#1 never freed",
	}
	if !reflect.DeepEqual(comms, want) {
		t.Fatalf("comm leaks %q, want %q", comms, want)
	}
}

func TestRequestLeakDetected(t *testing.T) {
	_, reqs := runLeaks(t, 2, func(p *Proc) error {
		if p.Rank() == 0 {
			_, err := p.Irecv(0, 99, p.CommWorld()) // never completed
			return err
		}
		return nil
	})
	want := []string{"rank 0: request recv(src=0 tag=99 Comm(world#0 rank 0/2)) never completed"}
	if !reflect.DeepEqual(reqs, want) {
		t.Fatalf("request leaks %q, want %q", reqs, want)
	}
}

func TestSendRequestLeakDetected(t *testing.T) {
	_, reqs := runLeaks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			_, err := p.Isend(1, 0, []byte("x"), c) // never waited
			return err
		}
		_, _, err := p.Recv(0, 0, c)
		return err
	})
	want := []string{"rank 0: request send(to=1 tag=0 Comm(world#0 rank 0/2)) never completed"}
	if !reflect.DeepEqual(reqs, want) {
		t.Fatalf("request leaks %q, want %q", reqs, want)
	}
}

// TestWaitedRequestsNotLeaked: a request retires when a Wait or a successful
// Test consumes it, and a cancelled receive retires in Cancel itself.
func TestWaitedRequestsNotLeaked(t *testing.T) {
	_, reqs := runLeaks(t, 2, func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := p.Isend(1, 0, []byte("x"), c)
			if err != nil {
				return err
			}
			if _, err = p.Wait(req); err != nil {
				return err
			}
			req, err = p.Isend(1, 1, []byte("y"), c)
			if err != nil {
				return err
			}
			for done := false; !done; {
				if _, done, err = p.Test(req); err != nil {
					return err
				}
			}
			return nil
		}
		req, err := p.Irecv(0, 0, c)
		if err != nil {
			return err
		}
		if _, err = p.Wait(req); err != nil {
			return err
		}
		if _, _, err = p.Recv(0, 1, c); err != nil {
			return err
		}
		never, err := p.Irecv(0, 7, c)
		if err != nil {
			return err
		}
		if ok, err := p.Cancel(never); err != nil || !ok {
			return fmt.Errorf("cancel: %v, %v", ok, err)
		}
		return nil
	})
	if len(reqs) > 0 {
		t.Fatalf("spurious R-leak: %v", reqs)
	}
}

// TestBlockingCallRequestIsNoLeak: the request inside a blocking call never
// reaches the program, so a run that deadlocks in one reports no R-leak.
func TestBlockingCallRequestIsNoLeak(t *testing.T) {
	w := NewWorld(Config{Procs: 2})
	err := w.Run(func(p *Proc) error {
		_, _, err := p.Recv(1-p.Rank(), 0, p.CommWorld())
		return err
	})
	if !IsDeadlock(err) {
		t.Fatalf("Run: %v, want a deadlock", err)
	}
	if leaks := w.RequestLeaks(); len(leaks) > 0 {
		t.Fatalf("request leaks %v, want none", leaks)
	}
}

var (
	commLeakRe = regexp.MustCompile(`^rank \d+: communicator .+#\d+ never freed$`)
	reqLeakRe  = regexp.MustCompile(`^rank \d+: request (send|recv)\(.+\) never completed$`)
)

// TestLeakEntryFormat pins the leak-description shapes other layers print
// verbatim (cmd/dampi prefixes them with "C-leak:"/"R-leak:").
func TestLeakEntryFormat(t *testing.T) {
	comms, reqs := runLeaks(t, 2, func(p *Proc) error {
		if _, err := p.CommDup(p.CommWorld()); err != nil {
			return err
		}
		_, err := p.Irecv(p.Rank(), 99, p.CommWorld())
		return err
	})
	if len(comms) != 2 || len(reqs) != 2 {
		t.Fatalf("leaks = %d comms, %d requests, want 2 and 2", len(comms), len(reqs))
	}
	for _, l := range comms {
		if !commLeakRe.MatchString(l) {
			t.Errorf("comm leak %q does not match %v", l, commLeakRe)
		}
	}
	for _, l := range reqs {
		if !reqLeakRe.MatchString(l) {
			t.Errorf("request leak %q does not match %v", l, reqLeakRe)
		}
		if !strings.Contains(l, "tag=99") {
			t.Errorf("request leak %q does not carry the posted tag", l)
		}
	}
}

// TestLeaksMultiRankOrdering checks that the reports are deterministic and
// grouped by ascending rank, whatever order the ranks returned in.
func TestLeaksMultiRankOrdering(t *testing.T) {
	const procs = 4
	program := func(p *Proc) error {
		// Every rank leaks one dup and one self-receive. Rank r returns only
		// after rank r+1 has sent to it, so the ranks return in reverse order.
		c := p.CommWorld()
		if _, err := p.CommDup(c); err != nil {
			return err
		}
		if _, err := p.Irecv(p.Rank(), 5, c); err != nil {
			return err
		}
		if p.Rank() > 0 {
			if err := p.Send(p.Rank()-1, 1, nil, c); err != nil {
				return err
			}
		}
		if p.Rank() < procs-1 {
			if _, _, err := p.Recv(p.Rank()+1, 1, c); err != nil {
				return err
			}
		}
		return nil
	}
	comms, reqs := runLeaks(t, procs, program)
	if len(comms) != procs || len(reqs) != procs {
		t.Fatalf("leaks = %d comms, %d requests, want %d each\ncomms: %v\nreqs: %v",
			len(comms), len(reqs), procs, comms, reqs)
	}
	for i := 0; i < procs; i++ {
		prefix := fmt.Sprintf("rank %d:", i)
		if !strings.HasPrefix(comms[i], prefix) {
			t.Errorf("comm leak %d = %q, want prefix %q", i, comms[i], prefix)
		}
		if !strings.HasPrefix(reqs[i], prefix) {
			t.Errorf("request leak %d = %q, want prefix %q", i, reqs[i], prefix)
		}
	}
	if comms2, reqs2 := runLeaks(t, procs, program); !reflect.DeepEqual(comms, comms2) || !reflect.DeepEqual(reqs, reqs2) {
		t.Error("the leak reports are not deterministic across runs")
	}
}

// TestLeaksMultiplePerRankSorted: a rank's leaks are ordered by their text,
// as the per-rank finalize sort of a tool layer ordered them ("#10" before
// "#2").
func TestLeaksMultiplePerRankSorted(t *testing.T) {
	comms, reqs := runLeaks(t, 1, func(p *Proc) error {
		for i := 0; i < 11; i++ {
			if _, err := p.CommDup(p.CommWorld()); err != nil {
				return err
			}
		}
		for _, tag := range []int{3, 12, 1} {
			if _, err := p.Irecv(0, tag, p.CommWorld()); err != nil {
				return err
			}
		}
		return nil
	})
	if len(comms) != 11 || len(reqs) != 3 {
		t.Fatalf("leaks = %d comms, %d requests, want 11 and 3", len(comms), len(reqs))
	}
	if comms[0] != "rank 0: communicator world.dup#1 never freed" || comms[1] != "rank 0: communicator world.dup#10 never freed" {
		t.Errorf("comm leaks not in text order: %q", comms)
	}
	for _, l := range [][]string{comms, reqs} {
		for i := 1; i < len(l); i++ {
			if l[i-1] > l[i] {
				t.Errorf("leaks not sorted: %q > %q", l[i-1], l[i])
			}
		}
	}
}

// TestUnreturnedRankReportsNothing: only a rank whose program returned has
// final leak facts; one that panicked reports nothing.
func TestUnreturnedRankReportsNothing(t *testing.T) {
	w := NewWorld(Config{Procs: 2})
	err := w.Run(func(p *Proc) error {
		if _, err := p.Irecv(p.Rank(), 1, p.CommWorld()); err != nil {
			return err
		}
		if p.Rank() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run: want rank 1's panic")
	}
	leaks := w.RequestLeaks()
	if len(leaks) != 1 || leaks[0].Rank != 0 {
		t.Fatalf("request leaks %v, want rank 0's only", leaks)
	}
}

// TestEscapeListHoldsOnlyLiveHandles: the per-rank list of requests handed
// to the program drops the consumed ones as it fills, so a long program that
// completes its requests keeps it short, and a world on carried Pools starts
// it empty.
func TestEscapeListHoldsOnlyLiveHandles(t *testing.T) {
	pools := NewPools(2)
	defer pools.Close()
	w := NewWorld(Config{Procs: 2, Pools: pools})
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		for i := 0; i < 1000; i++ {
			var req *Request
			var err error
			if p.Rank() == 0 {
				req, err = p.Isend(1, 0, nil, c)
			} else {
				req, err = p.Irecv(0, 0, c)
			}
			if err != nil {
				return err
			}
			if _, err := p.Wait(req); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := range pools.ranks {
		if n := cap(pools.ranks[r].escaped); n > 8 {
			t.Errorf("rank %d: escape list grew to %d for one live handle at a time", r, n)
		}
	}
	NewWorld(Config{Procs: 2, Pools: pools})
	for r := range pools.ranks {
		if n := len(pools.ranks[r].escaped); n != 0 {
			t.Errorf("rank %d: a new world starts with %d escaped requests", r, n)
		}
	}
}
