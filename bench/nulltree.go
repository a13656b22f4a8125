package main

import (
	"fmt"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// The null-replay tree isolates what an engine spends per task on
// scheduling (and, for dcoord, on the wire): the ExplorerConfig.Runner seam
// is given a stub that executes no program and returns a canned trace —
// depth wildcard epochs on rank 0, three alternates each, unbounded mixing.
// Flipping epoch i pins the i before it and leaves the rest free, so an
// exhaustive search runs exactly 4^depth tasks on every engine; the count
// doubles as a three-engine equivalence check.

const nullProcs = 5 // rank 0 plus the four senders an epoch chooses among

// nullAlternates[c] is the alternate set of an epoch that matched sender c.
// Shared and read-only: the engines copy what they keep.
var nullAlternates = func() [nullProcs][]int {
	var out [nullProcs][]int
	for chosen := 1; chosen < nullProcs; chosen++ {
		for s := 1; s < nullProcs; s++ {
			if s != chosen {
				out[chosen] = append(out[chosen], s)
			}
		}
	}
	return out
}()

// nullRunner returns the stub. onRun, if non-nil, is called at the start of
// every stubbed replay.
func nullRunner(depth int, onRun func()) func(*core.ExplorerConfig, *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
	return func(_ *core.ExplorerConfig, d *core.Decisions) (*core.RunTrace, *core.InterleavingResult, error) {
		if onRun != nil {
			onRun()
		}
		recs := make([]core.EpochRecord, depth)
		tr := &core.RunTrace{Epochs: make([]*core.EpochRecord, depth), MaxLC: uint64(depth)}
		res := &core.InterleavingResult{Epochs: depth}
		if d != nil {
			res.Decisions = d.Clone()
		} else {
			res.Decisions = core.NewDecisions()
		}
		for i := range recs {
			lc := uint64(i + 1)
			chosen, forced := 1, false
			if d != nil {
				if c, ok := d.Lookup(0, lc); ok {
					chosen, forced = c, true
				}
			}
			recs[i] = core.EpochRecord{
				Rank: 0, LC: lc, Kind: core.RecvEpoch,
				Chosen: chosen, Alternates: nullAlternates[chosen],
				Guided: forced, Order: uint64(i),
			}
			if !forced {
				res.Decisions.Force(recs[i].ID(), chosen)
			}
			tr.Epochs[i] = &recs[i]
		}
		return tr, res, nil
	}
}

func nullConfig(depth int, onRun func()) core.ExplorerConfig {
	return core.ExplorerConfig{
		Procs:       nullProcs,
		Program:     emptyProgram, // never run: Runner replaces every execution
		MixingBound: core.Unbounded,
		Runner:      nullRunner(depth, onRun),
	}
}

// nullTasks is 4^depth.
func nullTasks(depth int) int { return 1 << (2 * depth) }

// nullResult is one engine's pass over the tree.
type nullResult struct {
	tasks   int
	elapsed time.Duration
	// cluster only
	join     time.Duration // worker Run() call to its first stubbed replay
	requeues int
}

func (r nullResult) usPerTask() float64 {
	return float64(r.elapsed.Microseconds()) / float64(r.tasks)
}

func nullSerial(depth int) (nullResult, error) {
	start := time.Now()
	rep, err := core.NewExplorer(nullConfig(depth, nil)).Explore()
	if err != nil {
		return nullResult{}, fmt.Errorf("null tree, serial explorer: %w", err)
	}
	return nullResult{tasks: rep.Interleavings, elapsed: time.Since(start)}, nil
}

func nullSteal(depth, workers int) (nullResult, error) {
	start := time.Now()
	rep, err := dexplore.New(dexplore.Config{Explorer: nullConfig(depth, nil), Workers: workers}).Explore()
	if err != nil {
		return nullResult{}, fmt.Errorf("null tree, dexplore w=%d: %w", workers, err)
	}
	return nullResult{tasks: rep.Interleavings, elapsed: time.Since(start)}, nil
}

// nullCluster drives the tree through a dcoord coordinator and workers
// one-slot workers over loopback TCP.
func nullCluster(depth, workers int) (nullResult, error) {
	var firstRun sync.Once
	var firstAt time.Time
	ecfg := nullConfig(depth, func() { firstRun.Do(func() { firstAt = time.Now() }) })
	fp := dcoord.FingerprintFor("null-tree", &ecfg)

	start := time.Now()
	c, err := dcoord.New(dcoord.Config{Fingerprint: fp})
	if err != nil {
		return nullResult{}, fmt.Errorf("null tree, dcoord: %w", err)
	}
	ln, err := c.ListenAndServe("127.0.0.1:0")
	if err != nil {
		return nullResult{}, fmt.Errorf("null tree, dcoord listen: %w", err)
	}
	joinStart := time.Now()
	errs := make(chan error, workers)
	ws := make([]*dcoord.Worker, workers)
	for i := range ws {
		w := dcoord.NewWorker(dcoord.WorkerConfig{
			Addr: ln.Addr().String(), Name: fmt.Sprintf("null-%d", i), Slots: 1,
			Fingerprint: fp, Explorer: ecfg,
		})
		ws[i] = w
		go func() { errs <- w.Run() }()
	}
	rep, err := c.Wait()
	elapsed := time.Since(start)
	for _, w := range ws {
		// A worker that had not connected before the tree was covered would
		// otherwise keep redialling the closed listener.
		w.Stop()
	}
	for range ws {
		if werr := <-errs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		return nullResult{}, fmt.Errorf("null tree, dcoord w=%d: %w", workers, err)
	}
	return nullResult{
		tasks: rep.Interleavings, elapsed: elapsed,
		join: firstAt.Sub(joinStart), requeues: c.Status().Requeues,
	}, nil
}
