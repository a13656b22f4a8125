// Package skeleton provides the communication building blocks the benchmark
// proxies are composed from: halo exchanges, reduction rounds, transpose
// all-to-alls, pipelined wavefronts, master/worker fan-ins and resource-leak
// injection. Each block issues real MPI traffic with the same operation mix
// as the pattern it names; payloads are small because the verifier's costs
// scale with operation counts, not bytes.
package skeleton

import (
	"fmt"

	"dampi/mpi"
)

// Tags used by the skeleton blocks. Applications composing blocks with their
// own traffic should stay below tagBase.
const (
	tagBase = 1 << 12
	tagHalo = tagBase + iota
	tagWave
	tagFanIn
	tagPipe
)

// payload builds a small distinctive payload.
func payload(rank, round int) []byte {
	return mpi.EncodeInt64(int64(rank), int64(round))
}

// HaloExchange performs rounds of nearest-neighbour exchange on a hypercube:
// in each round every rank exchanges one message with each of its dims
// hypercube neighbours. nonblockingFraction in [0,1] selects how many of the
// exchanges use the Isend/Irecv/Waitall form (contributing Wait operations)
// versus blocking Send/Recv pairs.
func HaloExchange(p *mpi.Proc, c mpi.Comm, rounds, dims int, nonblockingFraction float64) error {
	n := c.Size()
	me := c.Rank()
	if dims < 1 {
		dims = 1
	}
	nbThreshold := int(nonblockingFraction * 1000)
	for r := 0; r < rounds; r++ {
		for d := 0; d < dims; d++ {
			nbr := me ^ (1 << uint(d))
			if nbr >= n {
				continue
			}
			if (r*dims+d)%1000 < nbThreshold {
				rreq, err := p.Irecv(nbr, tagHalo, c)
				if err != nil {
					return err
				}
				sreq, err := p.Isend(nbr, tagHalo, payload(me, r), c)
				if err != nil {
					return err
				}
				if _, err := p.Waitall([]*mpi.Request{rreq, sreq}); err != nil {
					return err
				}
			} else {
				// Lower rank sends first; blocking sends are eager so the
				// symmetric order cannot deadlock, but keeping a canonical
				// order mirrors well-written stencil codes.
				if me < nbr {
					if err := p.Send(nbr, tagHalo, payload(me, r), c); err != nil {
						return err
					}
					if _, _, err := p.Recv(nbr, tagHalo, c); err != nil {
						return err
					}
				} else {
					if _, _, err := p.Recv(nbr, tagHalo, c); err != nil {
						return err
					}
					if err := p.Send(nbr, tagHalo, payload(me, r), c); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// ReduceRounds performs n global Allreduce operations (the synchronising
// collectives that end computation phases).
func ReduceRounds(p *mpi.Proc, c mpi.Comm, n int) error {
	for i := 0; i < n; i++ {
		if _, err := p.Allreduce(c, mpi.EncodeFloat64(float64(p.Rank()+i)), mpi.SumFloat64); err != nil {
			return err
		}
	}
	return nil
}

// BarrierRounds performs n barriers.
func BarrierRounds(p *mpi.Proc, c mpi.Comm, n int) error {
	for i := 0; i < n; i++ {
		if err := p.Barrier(c); err != nil {
			return err
		}
	}
	return nil
}

// BcastRounds broadcasts n small payloads from rank 0.
func BcastRounds(p *mpi.Proc, c mpi.Comm, n int) error {
	for i := 0; i < n; i++ {
		var data []byte
		if c.Rank() == 0 {
			data = payload(0, i)
		}
		if _, err := p.Bcast(c, 0, data); err != nil {
			return err
		}
	}
	return nil
}

// TransposeRounds performs n all-to-all exchanges (FT/IS-style transposes).
func TransposeRounds(p *mpi.Proc, c mpi.Comm, n int) error {
	pieces := make([][]byte, c.Size())
	for j := range pieces {
		pieces[j] = payload(c.Rank(), j)
	}
	for i := 0; i < n; i++ {
		if _, err := p.Alltoall(c, pieces); err != nil {
			return err
		}
	}
	return nil
}

// Wavefront pipelines rounds of messages rank-to-rank along the ring
// 0 -> 1 -> ... -> n-1 (LU-style pipelined dependency). If wildcard is true,
// receivers post MPI_ANY_SOURCE receives (the upstream rank is the only
// matching sender, but the receive is still a verification decision point,
// as in the LU benchmarks' boundary exchanges).
func Wavefront(p *mpi.Proc, c mpi.Comm, rounds int, wildcard bool) error {
	n := c.Size()
	me := c.Rank()
	if n == 1 {
		return nil
	}
	for r := 0; r < rounds; r++ {
		if me > 0 {
			src := me - 1
			if wildcard {
				src = mpi.AnySource
			}
			if _, _, err := p.Recv(src, tagWave, c); err != nil {
				return err
			}
		}
		if me < n-1 {
			if err := p.Send(me+1, tagWave, payload(me, r), c); err != nil {
				return err
			}
		}
	}
	return nil
}

// FanIn has rank 0 receive one wildcard message per other rank per round —
// the master/worker result-collection pattern whose interleavings DAMPI
// explores. Returns the number of wildcard receives rank 0 posted.
func FanIn(p *mpi.Proc, c mpi.Comm, rounds int) (int, error) {
	n := c.Size()
	wildcards := 0
	for r := 0; r < rounds; r++ {
		if c.Rank() == 0 {
			for i := 1; i < n; i++ {
				if _, _, err := p.Recv(mpi.AnySource, tagFanIn, c); err != nil {
					return wildcards, err
				}
				wildcards++
			}
		} else {
			if err := p.Send(0, tagFanIn, payload(c.Rank(), r), c); err != nil {
				return wildcards, err
			}
		}
		if err := p.Barrier(c); err != nil {
			return wildcards, err
		}
	}
	return wildcards, nil
}

// WildcardPairs makes each rank receive count messages from its hypercube
// dimension-0 neighbour via MPI_ANY_SOURCE (distributed wildcard load, as in
// milc's site gathers). Every rank both sends and receives count messages.
func WildcardPairs(p *mpi.Proc, c mpi.Comm, count int) error {
	n := c.Size()
	me := c.Rank()
	nbr := me ^ 1
	if nbr >= n {
		return nil
	}
	for i := 0; i < count; i++ {
		if me < nbr {
			if err := p.Send(nbr, tagPipe, payload(me, i), c); err != nil {
				return err
			}
			if _, _, err := p.Recv(mpi.AnySource, tagPipe, c); err != nil {
				return err
			}
		} else {
			if _, _, err := p.Recv(mpi.AnySource, tagPipe, c); err != nil {
				return err
			}
			if err := p.Send(nbr, tagPipe, payload(me, i), c); err != nil {
				return err
			}
		}
	}
	return nil
}

// LeakComm duplicates the communicator and deliberately never frees it,
// implanting the C-leak defect the paper's Table II reports for several
// codes. The handle is returned so callers can use (but must not free) it.
func LeakComm(p *mpi.Proc, c mpi.Comm) (mpi.Comm, error) {
	dup, err := p.CommDup(c)
	if err != nil {
		return mpi.Comm{}, fmt.Errorf("skeleton: leak dup: %w", err)
	}
	return dup, nil
}
