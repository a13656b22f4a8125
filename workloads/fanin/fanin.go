// Package fanin is a master-side fan-in workload around a type-confused
// wildcard: rank 0 posts a wildcard control receive that two ranks target,
// but only rank 1 sends the float64 vector the master decodes; rank 2 sends
// raw bytes. The runtime matcher ignores payload types, so both matches are
// feasible and the explorer replays both; in the second the master decodes
// rank 2's bytes as garbage. This program ignores the decoded sum, so it
// verifies clean, and mpilint's wildtype check names rank 2 statically. A
// variant that checks the sum is a seeded-bug test of package verify. A
// control probe and a deterministic data fan-in round out the traffic.
//
// The shape is deliberately deterministic at MixingBound 0: rank 2's
// control send is causally ordered after rank 1's (rank 2 waits for a note
// from rank 1 first), so the wildcard's observed match never races, and
// rank 3 pumps rank 0's Lamport clock with pings so rank 2's control send
// stays "late" and is recorded as the alternate the explorer flips.
package fanin

import (
	"fmt"

	"dampi/mpi"
)

// Config tunes the workload.
type Config struct {
	// Pings is the number of clock-pump pings rank 3 sends rank 0 before the
	// control phase (default 4).
	Pings int
}

// Message tags of the three traffic phases.
const (
	tagPing = 1 // rank 3 → rank 0 clock pump
	tagCtl  = 2 // control: ranks 1 and 2 → rank 0
	tagNote = 3 // rank 1 → rank 2 ordering note
	tagData = 4 // data fan-in: everyone → rank 0
)

// MinProcs is the smallest world size the program supports.
const MinProcs = 4

// Program builds the fan-in program. It requires at least MinProcs ranks.
func Program(cfg Config) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.CommWorld()
		if p.Size() < MinProcs {
			return fmt.Errorf("fanin: need at least %d ranks, got %d", MinProcs, p.Size())
		}
		pings := cfg.Pings
		if pings <= 0 {
			pings = 4
		}
		switch p.Rank() {
		case 0:
			// Clock pump: raise rank 0's Lamport clock well above the control
			// senders' so both control sends are late (= recordable
			// alternates) at the wildcard below.
			for i := 0; i < pings; i++ {
				if _, _, err := p.Recv(3, tagPing, c); err != nil {
					return err
				}
			}
			// The type-confused wildcard: both rank 1 and rank 2 send tagCtl
			// here, but only rank 1's payload is a float64 vector.
			//mpilint:ignore wildtype -- deliberate: decoding rank 2's raw bytes as garbage is what this workload demonstrates
			ctl, _, err := p.Recv(mpi.AnySource, tagCtl, c)
			if err != nil {
				return err
			}
			sum := 0.0
			for _, v := range mpi.DecodeFloat64(ctl) {
				sum += v
			}
			// Drain the other control message via a probe + specific-source
			// receive, so the program is correct whichever sender the
			// wildcard above took.
			st, err := p.Probe(mpi.AnySource, tagCtl, c)
			if err != nil {
				return err
			}
			if _, _, err := p.Recv(st.Source, tagCtl, c); err != nil {
				return err
			}
			// Deterministic data fan-in: one message from every other rank,
			// received in rank order.
			for src := 1; src < p.Size(); src++ {
				data, _, err := p.Recv(src, tagData, c)
				if err != nil {
					return err
				}
				for _, v := range mpi.DecodeFloat64(data) {
					sum += v
				}
			}
			_ = sum
		case 1:
			if err := p.Send(0, tagCtl, mpi.EncodeFloat64(1, 2, 3), c); err != nil {
				return err
			}
			// The note orders rank 2's control send after ours, which keeps
			// the wildcard's observed match deterministic run to run.
			if err := p.Send(2, tagNote, nil, c); err != nil {
				return err
			}
			if err := p.Send(0, tagData, mpi.EncodeFloat64(float64(p.Rank())), c); err != nil {
				return err
			}
		case 2:
			if _, _, err := p.Recv(1, tagNote, c); err != nil {
				return err
			}
			// Raw bytes, not an encoded float64 vector: matched at rank 0's
			// wildcard, they decode as garbage.
			if err := p.Send(0, tagCtl, []byte("ctl"), c); err != nil {
				return err
			}
			if err := p.Send(0, tagData, mpi.EncodeFloat64(float64(p.Rank())), c); err != nil {
				return err
			}
		case 3:
			for i := 0; i < pings; i++ {
				if err := p.Send(0, tagPing, nil, c); err != nil {
					return err
				}
			}
			if err := p.Send(0, tagData, mpi.EncodeFloat64(float64(p.Rank())), c); err != nil {
				return err
			}
		default:
			if err := p.Send(0, tagData, mpi.EncodeFloat64(float64(p.Rank())), c); err != nil {
				return err
			}
		}
		return nil
	}
}
