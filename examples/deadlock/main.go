// Deadlock: detection, diagnosis, and the §V unsafe-pattern monitor.
//
// Part 1 verifies a program with an interleaving-dependent deadlock: two
// clients race wildcard requests into a server whose reply protocol starves
// one ordering. Native runs usually pass; DAMPI finds the deadlocking
// schedule and reports exactly which rank was stuck where, with a
// reproducer.
//
// Part 2 runs the paper's Figure 10 program, whose wildcard Irecv leaks its
// clock through a Barrier before the Wait — the omission pattern DAMPI's
// Lamport algorithm cannot cover. The scalable local monitor flags it.
//
//	go run ./examples/deadlock
package main

import (
	"errors"
	"fmt"
	"log"

	"dampi/mpi"
	"dampi/verify"
)

// serverProgram: rank 0 serves two requests but replies to the FIRST
// requester only, then waits for a follow-up from whoever that was. If the
// two clients' requests arrive in the "wrong" order, a client blocks
// forever on a reply that never comes.
func serverProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		_, st, err := p.Recv(mpi.AnySource, 0, c) // first request wins
		if err != nil {
			return err
		}
		if err := p.Send(st.Source, 1, []byte("granted"), c); err != nil {
			return err
		}
		_, _, err = p.Recv(st.Source, 2, c) // follow-up from the winner
		if err != nil {
			return err
		}
		_, _, err = p.Recv(mpi.AnySource, 0, c) // drain the loser's request
		return err
	case 1, 2:
		if err := p.Send(0, 0, []byte("request"), c); err != nil {
			return err
		}
		// Only rank 1 ever sends the follow-up; if rank 2's request wins the
		// race, the server waits for a follow-up from rank 2 forever.
		if p.Rank() == 1 {
			if _, _, err := p.Recv(0, 1, c); err != nil {
				return err
			}
			return p.Send(0, 2, []byte("follow-up"), c)
		}
		return nil
	}
	return nil
}

// fig10Program is the paper's Figure 10: the clock of P1's pending wildcard
// Irecv escapes through the Barrier before its Wait.
func fig10Program(p *mpi.Proc) error {
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		if err := p.Send(1, 0, mpi.EncodeInt64(22), c); err != nil {
			return err
		}
		return p.Barrier(c) //mpilint:ignore rankcoll -- every rank reaches the barrier; per-rank phasing is the point of Fig. 10
	case 1:
		req, err := p.Irecv(mpi.AnySource, 0, c)
		if err != nil {
			return err
		}
		if err := p.Barrier(c); err != nil { //mpilint:ignore rankcoll -- see above
			return err
		}
		_, err = p.Wait(req)
		return err
	case 2:
		if err := p.Barrier(c); err != nil { //mpilint:ignore rankcoll -- see above
			return err
		}
		return p.Send(1, 0, mpi.EncodeInt64(33), c)
	}
	return nil
}

func main() {
	fmt.Println("Part 1 — interleaving-dependent deadlock")
	res, err := verify.Run(verify.Config{Procs: 3}, serverProgram)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("  %s\n", res.Summary())
	if res.Deadlocks == 0 {
		log.Fatal("expected DAMPI to find the deadlocking schedule")
	}
	for _, e := range res.Errors {
		if !e.Deadlock {
			continue
		}
		fmt.Printf("  deadlock in interleaving #%d, reproducer %v\n", e.Index, e.Decisions)
		var dl *mpi.DeadlockError
		if errors.As(e.Err, &dl) {
			fmt.Printf("  stuck at:\n%s", dl.Detail())
		}
	}

	fmt.Println("\nPart 2 — §V unsafe pattern (Figure 10)")
	res, err = verify.Run(verify.Config{Procs: 3}, fig10Program)
	if err != nil {
		log.Fatalf("verify: %v", err)
	}
	fmt.Printf("  %s\n", res.Summary())
	if len(res.Unsafe) == 0 {
		log.Fatal("expected the unsafe-pattern monitor to fire")
	}
	for _, u := range res.Unsafe {
		fmt.Printf("  ALERT %v — coverage of this receive's matches is not guaranteed\n", u)
	}
}
