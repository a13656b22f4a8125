package isp

import (
	"errors"

	"dampi/internal/core"
	"dampi/mpi"
)

// Config configures an ISP verification.
type Config struct {
	// Procs is the world size.
	Procs int
	// Program is the MPI program under verification.
	Program func(p *mpi.Proc) error
	// MaxInterleavings caps the number of runs (0 = unlimited).
	MaxInterleavings int
	// StopOnFirstError ends exploration at the first failing interleaving.
	StopOnFirstError bool
}

// Explorer verifies a program under ISP's centralized control. Each run is
// scheduled by one central scheduler; between runs, core's depth-first search
// replays the wildcard decisions those schedulers recorded, as it does
// DAMPI's. The two verifiers therefore differ only in how a run is made.
type Explorer struct {
	cfg   Config
	pools *mpi.Pools // runtime storage carried from run to run, as DAMPI's is
}

// NewExplorer creates an ISP explorer.
func NewExplorer(cfg Config) *Explorer {
	if cfg.Procs < 1 {
		panic("isp: Config.Procs must be >= 1")
	}
	if cfg.Program == nil {
		panic("isp: Config.Program must be set")
	}
	return &Explorer{cfg: cfg}
}

// Explore covers the interleaving space under ISP's centralized control. A
// failing interleaving's reproducer keys each decision by (rank, k-th
// wildcard operation), not DAMPI's (rank, Lamport clock): it replays only
// through ISP.
func (e *Explorer) Explore() (*core.Report, error) {
	e.pools = mpi.NewPools(e.cfg.Procs)
	defer e.pools.Close()
	return core.NewExplorer(core.ExplorerConfig{
		Procs:            e.cfg.Procs,
		Program:          e.cfg.Program,
		MixingBound:      core.Unbounded,
		MaxInterleavings: e.cfg.MaxInterleavings,
		StopOnFirstError: e.cfg.StopOnFirstError,
		Runner:           e.run,
	}).Explore()
}

// run performs one centrally scheduled run with the forced decisions
// enforced: the core.ExplorerConfig.Runner of ISP's exploration.
func (e *Explorer) run(cfg *core.ExplorerConfig, forced *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	hooks := &mpi.Hooks{}
	world := mpi.NewWorld(mpi.Config{Procs: cfg.Procs, Hooks: hooks, Pools: e.pools})
	sched := newScheduler(cfg.Procs, world, forced)
	*hooks = *sched.Hooks()

	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		sched.loop()
	}()
	runErr := world.Run(cfg.Program)
	sched.stop()
	<-loopDone

	trace := &core.RunTrace{Epochs: sched.records}
	var re *mpi.RunError
	return trace, &core.InterleavingResult{
		Err:       runErr,
		Deadlock:  errors.As(runErr, &re) && re.Deadlock != nil,
		Epochs:    len(sched.records),
		Decisions: core.DecisionsFromTrace(trace),
	}, nil
}
