// Package workloads registers every benchmark program by name, with the
// verification-relevant metadata Table II reports, so the CLI and the
// experiment harness can run them uniformly.
package workloads

import (
	"fmt"
	"sort"

	"dampi/mpi"
	"dampi/workloads/adlb"
	"dampi/workloads/fanin"
	"dampi/workloads/iprobe"
	"dampi/workloads/matmul"
	"dampi/workloads/nas"
	"dampi/workloads/parmetis"
	"dampi/workloads/spec"
)

// Params are the common knobs a workload program accepts.
type Params struct {
	// Procs is the world size the program will run with.
	Procs int
	// Scale divides traffic volumes for the proxies that support it.
	Scale int
	// Iters is the outer iteration count for the proxies that support it.
	Iters int
}

// Workload is one registered benchmark.
type Workload struct {
	// Name is the registry key (e.g. "104.milc", "LU", "matmul").
	Name string
	// Suite groups the workload ("paper", "nas", "spec").
	Suite string
	// Description is a one-line summary.
	Description string
	// MinProcs is the smallest world the program supports.
	MinProcs int
	// HasWildcards reports whether the program issues wildcard receives or
	// probes (Table II's R* > 0 rows).
	HasWildcards bool
	// ExpectCommLeak reports the implanted C-leak defect (Table II).
	ExpectCommLeak bool
	// Program builds the MPI program for the given parameters.
	Program func(p Params) func(*mpi.Proc) error
}

var registry = map[string]*Workload{}

func register(w *Workload) {
	if _, dup := registry[w.Name]; dup {
		panic(fmt.Sprintf("workloads: duplicate %q", w.Name))
	}
	registry[w.Name] = w
}

// Get returns the named workload.
func Get(name string) (*Workload, error) {
	w, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q (try one of %v)", name, Names())
	}
	return w, nil
}

// Names lists the registered workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// All returns every registered workload, sorted by name.
func All() []*Workload {
	var out []*Workload
	for _, n := range Names() {
		out = append(out, registry[n])
	}
	return out
}

// TableII returns the workloads of the paper's Table II, in the paper's row
// order.
func TableII() []*Workload {
	names := []string{
		"ParMETIS-3.1", "104.milc", "107.leslie3d", "113.GemsFDTD",
		"126.lammps", "130.socorro", "137.lu",
		"BT", "CG", "DT", "EP", "FT", "IS", "LU", "MG",
	}
	out := make([]*Workload, len(names))
	for i, n := range names {
		out[i] = registry[n]
	}
	return out
}

func nasCfg(p Params) nas.Config   { return nas.Config{Iters: p.Iters, Scale: p.Scale} }
func specCfg(p Params) spec.Config { return spec.Config{Iters: p.Iters, Scale: p.Scale} }

func init() {
	register(&Workload{
		Name: "matmul", Suite: "paper", MinProcs: 2, HasWildcards: true,
		Description: "master/slave matrix multiplication with wildcard result collection (Figs. 6, 8)",
		Program: func(p Params) func(*mpi.Proc) error {
			return matmul.Program(matmul.Config{})
		},
	})
	register(&Workload{
		Name: "ParMETIS-3.1", Suite: "paper", MinProcs: 2, ExpectCommLeak: true,
		Description: "hypergraph partitioning communication proxy (Fig. 5, Table I)",
		Program: func(p Params) func(*mpi.Proc) error {
			return parmetis.Program(parmetis.Config{Scale: p.Scale, LeakComm: true})
		},
	})
	register(&Workload{
		Name: "fanin", Suite: "paper", MinProcs: fanin.MinProcs, HasWildcards: true,
		Description: "control/data fan-in with a type-confused wildcard (a raw-bytes sender can match a float64 decode)",
		Program: func(p Params) func(*mpi.Proc) error {
			return fanin.Program(fanin.Config{})
		},
	})
	register(&Workload{
		Name: "iprobe", Suite: "paper", MinProcs: iprobe.MinProcs,
		Description: "polling master/worker with an Iprobe-outcome bug (schedule-sampling demo)",
		Program: func(p Params) func(*mpi.Proc) error {
			return iprobe.Program(iprobe.Config{})
		},
	})
	register(&Workload{
		Name: "adlb", Suite: "paper", MinProcs: 2, HasWildcards: true,
		Description: "asynchronous dynamic load balancing work-sharing driver (Fig. 9)",
		Program: func(p Params) func(*mpi.Proc) error {
			return adlb.Program(adlb.DriverConfig{})
		},
	})

	register(&Workload{
		Name: "104.milc", Suite: "spec", MinProcs: 2, HasWildcards: true, ExpectCommLeak: true,
		Description: "lattice QCD proxy: wildcard-heavy site gathers (R* = 51K at 1K procs)",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.Milc(specCfg(p)) },
	})
	register(&Workload{
		Name: "107.leslie3d", Suite: "spec", MinProcs: 2,
		Description: "CFD proxy: deterministic 3-D stencil",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.Leslie3d(specCfg(p)) },
	})
	register(&Workload{
		Name: "113.GemsFDTD", Suite: "spec", MinProcs: 2, ExpectCommLeak: true,
		Description: "FDTD proxy: leapfrog stencil with communicator leak",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.GemsFDTD(specCfg(p)) },
	})
	register(&Workload{
		Name: "126.lammps", Suite: "spec", MinProcs: 2,
		Description: "molecular dynamics proxy: neighbour exchange + rebalancing",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.Lammps(specCfg(p)) },
	})
	register(&Workload{
		Name: "130.socorro", Suite: "spec", MinProcs: 2,
		Description: "DFT proxy: broadcast/reduce heavy with transposes",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.Socorro(specCfg(p)) },
	})
	register(&Workload{
		Name: "137.lu", Suite: "spec", MinProcs: 2, HasWildcards: true, ExpectCommLeak: true,
		Description: "pipelined solver proxy: sparse wildcards (R* = 732 at 1K procs)",
		Program:     func(p Params) func(*mpi.Proc) error { return spec.Lu137(specCfg(p)) },
	})

	register(&Workload{
		Name: "BT", Suite: "nas", MinProcs: 2, ExpectCommLeak: true,
		Description: "block-tridiagonal solver proxy with communicator leak",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.BT(nasCfg(p)) },
	})
	register(&Workload{
		Name: "CG", Suite: "nas", MinProcs: 2,
		Description: "conjugate gradient proxy",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.CG(nasCfg(p)) },
	})
	register(&Workload{
		Name: "DT", Suite: "nas", MinProcs: 2,
		Description: "data-traffic tree proxy (minimal communication)",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.DT(nasCfg(p)) },
	})
	register(&Workload{
		Name: "EP", Suite: "nas", MinProcs: 1,
		Description: "embarrassingly parallel proxy",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.EP(nasCfg(p)) },
	})
	register(&Workload{
		Name: "FT", Suite: "nas", MinProcs: 2, ExpectCommLeak: true,
		Description: "3-D FFT proxy: all-to-all transposes, communicator leak",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.FT(nasCfg(p)) },
	})
	register(&Workload{
		Name: "IS", Suite: "nas", MinProcs: 2,
		Description: "integer sort proxy: histogram + key redistribution",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.IS(nasCfg(p)) },
	})
	register(&Workload{
		Name: "LU", Suite: "nas", MinProcs: 2, HasWildcards: true,
		Description: "LU solver proxy: pipelined wavefront with wildcard boundary receives",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.LU(nasCfg(p)) },
	})
	register(&Workload{
		Name: "MG", Suite: "nas", MinProcs: 2,
		Description: "multigrid V-cycle proxy",
		Program:     func(p Params) func(*mpi.Proc) error { return nas.MG(nasCfg(p)) },
	})
}
