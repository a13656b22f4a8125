package main

import (
	"fmt"

	"dampi/mpi"
	"dampi/workloads"
	"dampi/workloads/adlb"
	"dampi/workloads/iprobe"
	"dampi/workloads/matmul"
	"dampi/workloads/parmetis"
	"dampi/workloads/spec"
)

// program is an MPI program and the world size the ledger runs it at.
type program struct {
	name  string
	procs int
	run   func(*mpi.Proc) error
	// pinned, when set, is the known answer of one instrumented run.
	pinned *singleRun
}

// The programs the six workloads verify. Sizes are part of the workload
// definitions in README.md; later issues cite them.
var (
	adlbProgram     = program{name: "adlb", procs: 8, run: adlb.Program(adlb.DriverConfig{})}
	matmulProgram   = program{name: "matmul", procs: 8, run: matmul.Program(matmul.Config{})}
	parmetisProgram = program{name: "parmetis", procs: 16, run: parmetis.Program(parmetis.Config{Scale: 10}), pinned: &expectParmetis}
	milcProgram     = program{name: "104.milc", procs: 64, run: spec.Milc(spec.Config{Scale: 100, Iters: 4}), pinned: &expectMilc}
	iprobeProgram   = program{name: "iprobe", procs: 2, run: iprobe.Program(iprobe.Config{})}
)

// registryProgram builds a job's program the way cmd/dampid does.
func registryProgram(name string, procs, scale, iters int) (func(*mpi.Proc) error, error) {
	wl, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	if procs < wl.MinProcs {
		return nil, fmt.Errorf("%s needs at least %d procs", wl.Name, wl.MinProcs)
	}
	return wl.Program(workloads.Params{Procs: procs, Scale: scale, Iters: iters}), nil
}

// emptyProgram returns at once: a world running it measures spin-up only.
func emptyProgram(*mpi.Proc) error { return nil }

// pingPong bounces a one-byte message between ranks 0 and 1, iters round
// trips: the point-to-point matching floor.
func pingPong(iters int) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.CommWorld()
		buf := []byte("x")
		for i := 0; i < iters; i++ {
			if p.Rank() == 0 {
				if err := p.Send(1, 0, buf, c); err != nil {
					return err
				}
				if _, _, err := p.Recv(1, 0, c); err != nil {
					return err
				}
			} else {
				if _, _, err := p.Recv(0, 0, c); err != nil {
					return err
				}
				if err := p.Send(0, 0, buf, c); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// fanIn has every rank but 0 send perSender requests to rank 0, which takes
// them with AnySource and answers each sender. The reply keeps every
// sender at most one message ahead, so the unexpected queue stays short and
// the section times wildcard matching, not queue growth.
func fanIn(perSender int) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.CommWorld()
		buf := []byte("x")
		if p.Rank() != 0 {
			for i := 0; i < perSender; i++ {
				if err := p.Send(0, 0, buf, c); err != nil {
					return err
				}
				if _, _, err := p.Recv(0, 1, c); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < perSender*(p.Size()-1); i++ {
			_, st, err := p.Recv(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if err := p.Send(st.Source, 1, buf, c); err != nil {
				return err
			}
		}
		return nil
	}
}

// allreduceLoop runs iters sum-allreduces over the world.
func allreduceLoop(iters int) func(*mpi.Proc) error {
	return func(p *mpi.Proc) error {
		c := p.CommWorld()
		for i := 0; i < iters; i++ {
			if _, err := p.Allreduce(c, mpi.EncodeInt64(int64(p.Rank())), mpi.SumInt64); err != nil {
				return err
			}
		}
		return nil
	}
}

// fig4CrossCoupled is the paper's Fig. 4 pattern: ranks 0 and 3 seed ranks 1
// and 2 before a barrier, so the self run takes the straight matches; the
// cross sends between 1 and 2 are concurrent with the wildcard receives, and
// matching either one starves the later deterministic receive.
func fig4CrossCoupled(p *mpi.Proc) error {
	c := p.CommWorld()
	seeder := p.Rank() == 0 || p.Rank() == 3
	if seeder {
		dest := 1
		if p.Rank() == 3 {
			dest = 2
		}
		if err := p.Send(dest, 0, []byte("seed"), c); err != nil {
			return err
		}
	}
	if err := p.Barrier(c); err != nil {
		return err
	}
	if seeder {
		return nil
	}
	peer := 3 - p.Rank()
	if _, _, err := p.Recv(mpi.AnySource, 0, c); err != nil {
		return err
	}
	if err := p.Send(peer, 0, []byte("cross"), c); err != nil {
		return err
	}
	_, _, err := p.Recv(peer, 0, c)
	return err
}
