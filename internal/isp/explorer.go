package isp

import (
	"errors"
	"fmt"

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

// RunResult describes one explored interleaving.
type RunResult struct {
	Index    int
	Forced   map[DecisionKey]int
	Err      error
	Deadlock bool
}

// Report summarizes an ISP exploration.
type Report struct {
	Interleavings int
	Errors        []*RunResult
	Deadlocks     int
	Capped        bool
}

// Errored reports whether any interleaving failed.
func (r *Report) Errored() bool { return len(r.Errors) > 0 }

type frame struct {
	key    DecisionKey
	chosen int
	alts   []int
}

// Explorer drives ISP's centralized depth-first interleaving exploration.
type Explorer struct {
	cfg    Config
	stack  []*frame
	forced map[DecisionKey]*frame
	report *Report
	pools  *mpi.Pools // runtime storage carried from run to run, as DAMPI's is
}

// NewExplorer creates an ISP explorer.
func NewExplorer(cfg Config) *Explorer {
	if cfg.Procs < 1 {
		panic("isp: Config.Procs must be >= 1")
	}
	if cfg.Program == nil {
		panic("isp: Config.Program must be set")
	}
	return &Explorer{cfg: cfg, forced: make(map[DecisionKey]*frame), report: &Report{}}
}

// Explore covers the interleaving space under ISP's centralized control.
func (e *Explorer) Explore() (*Report, error) {
	e.pools = mpi.NewPools(e.cfg.Procs)
	defer e.pools.Close()
	decisions, res := e.runOnce(nil)
	e.record(res)
	if !res.Deadlock {
		e.pushNew(decisions)
	}
	if e.cfg.StopOnFirstError && res.Err != nil {
		return e.report, nil
	}
	for {
		if e.cfg.MaxInterleavings > 0 && e.report.Interleavings >= e.cfg.MaxInterleavings {
			if e.pendingWork() {
				e.report.Capped = true
			}
			break
		}
		f := e.nextFlip()
		if f == nil {
			break
		}
		f.chosen = f.alts[0]
		f.alts = f.alts[1:]
		forced := make(map[DecisionKey]int, len(e.stack))
		for _, fr := range e.stack {
			forced[fr.key] = fr.chosen
		}
		decisions, res := e.runOnce(forced)
		e.record(res)
		if !res.Deadlock {
			e.pushNew(decisions)
		}
		if e.cfg.StopOnFirstError && res.Err != nil {
			break
		}
	}
	return e.report, nil
}

func (e *Explorer) nextFlip() *frame {
	for len(e.stack) > 0 {
		top := e.stack[len(e.stack)-1]
		if len(top.alts) > 0 {
			return top
		}
		e.stack = e.stack[:len(e.stack)-1]
		delete(e.forced, top.key)
	}
	return nil
}

func (e *Explorer) pendingWork() bool {
	for _, f := range e.stack {
		if len(f.alts) > 0 {
			return true
		}
	}
	return false
}

func (e *Explorer) pushNew(decisions []*Decision) {
	for _, d := range decisions {
		if _, ok := e.forced[d.Key]; ok {
			continue
		}
		if d.Forced {
			continue
		}
		f := &frame{key: d.Key, chosen: d.Chosen, alts: append([]int(nil), d.Alternates...)}
		e.stack = append(e.stack, f)
		e.forced[d.Key] = f
	}
}

func (e *Explorer) record(res *RunResult) {
	e.report.Interleavings++
	if res.Err != nil {
		e.report.Errors = append(e.report.Errors, res)
	}
	if res.Deadlock {
		e.report.Deadlocks++
	}
}

// runOnce performs one centrally scheduled run.
func (e *Explorer) runOnce(forced map[DecisionKey]int) ([]*Decision, *RunResult) {
	var sched *scheduler
	hooks := &mpi.Hooks{}
	world := mpi.NewWorld(mpi.Config{Procs: e.cfg.Procs, Hooks: hooks, Pools: e.pools})
	sched = newScheduler(e.cfg.Procs, world, forced)
	*hooks = *sched.Hooks()

	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		sched.loop()
	}()
	runErr := world.Run(e.cfg.Program)
	sched.stop()
	<-loopDone

	res := &RunResult{Index: e.report.Interleavings, Err: runErr, Forced: forced}
	var re *mpi.RunError
	if errors.As(runErr, &re) && re.Deadlock != nil {
		res.Deadlock = true
	}
	return sched.decisions, res
}

func (r *RunResult) String() string {
	state := "ok"
	switch {
	case r.Deadlock:
		state = "deadlock"
	case r.Err != nil:
		state = "error"
	}
	return fmt.Sprintf("isp interleaving #%d: %s", r.Index, state)
}
