package main

import (
	"fmt"

	"dampi/verify"
)

// runCheck is the untimed -check mode: it runs the whole pinned table of
// expected.go, every entry one verification, and reports failed over
// attempted. Nothing here is timed and nothing is recomputed: each verdict
// is compared with the hand-written answer.
func runCheck(h *harness) (*result, error) {
	res := &result{Workload: "check", Metrics: map[string]dist{}}
	explore := func(what string, cfg verify.Config, prog program, want coverage) error {
		cfg.Procs = prog.procs
		out, err := verify.Run(cfg, prog.run)
		if err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		ok := out.Interleavings == want.Interleavings && out.Deadlocks == want.Deadlocks &&
			(want.DecisionPoints == 0 || out.DecisionPoints == want.DecisionPoints)
		res.verdict(ok, "%s: interleavings=%d decision points=%d deadlocks=%d, pinned %d, %d, %d",
			what, out.Interleavings, out.DecisionPoints, out.Deadlocks, want.Interleavings, want.DecisionPoints, want.Deadlocks)
		return nil
	}

	for _, c := range expectMatmul {
		prog := matmulProgram
		prog.procs = c.Procs
		what := fmt.Sprintf("matmul p=%d k=%d", c.Procs, c.MixingBound)
		if err := explore(what, verify.Config{MixingBound: c.MixingBound}, prog, c.Want); err != nil {
			return nil, err
		}
	}

	fig4 := program{name: "fig4", procs: 4, run: fig4CrossCoupled}
	if err := explore("fig4 Lamport", verify.Config{Clock: verify.Lamport, MixingBound: verify.Unbounded}, fig4, expectFig4Lamport); err != nil {
		return nil, err
	}
	if err := explore("fig4 VectorClock", verify.Config{Clock: verify.VectorClock, MixingBound: verify.Unbounded}, fig4, expectFig4Vector); err != nil {
		return nil, err
	}

	for _, n := range []struct {
		engine string
		run    func() (nullResult, error)
	}{
		{"core.Explorer", func() (nullResult, error) { return nullSerial(nullTreeDepth) }},
		{"dexplore w=1", func() (nullResult, error) { return nullSteal(nullTreeDepth, 1) }},
		{"dexplore w=W", func() (nullResult, error) { return nullSteal(nullTreeDepth, h.host.Workers) }},
		{"dcoord 1 worker", func() (nullResult, error) { return nullCluster(nullTreeDepth, 1) }},
		{"dcoord W workers", func() (nullResult, error) { return nullCluster(nullTreeDepth, h.host.Workers) }},
	} {
		r, err := n.run()
		if err != nil {
			return nil, err
		}
		checkNull(res, n.engine, nullTreeDepth, r)
	}

	for _, prog := range []program{parmetisProgram, milcProgram} {
		out, err := verify.Run(verify.Config{Procs: prog.procs, MixingBound: verify.Unbounded, MaxInterleavings: 1, CollectStats: true}, prog.run)
		if err != nil {
			return nil, fmt.Errorf("%s single run: %w", prog.name, err)
		}
		got := singleRun{out.WildcardsAnalyzed, out.Stats.Totals().All}
		res.verdict(got == *prog.pinned && !out.Errored(), "%s single run: R*=%d ops=%d errors=%d, pinned %d, %d, 0",
			prog.name, got.RStar, got.Ops, len(out.Errors), prog.pinned.RStar, prog.pinned.Ops)
	}

	distinct := -1
	for i := 0; i < 2; i++ {
		out, err := verify.Run(sampleConfig(h.seed), iprobeProgram.run)
		if err != nil {
			return nil, fmt.Errorf("iprobe sample: %w", err)
		}
		res.absorb(1, checkSample(out, distinct))
		distinct = out.SampledDistinct
	}

	// ADLB on every engine, and the service, each under its own oracle.
	const cap = 2000
	for _, e := range []env{
		&exploreEnv{workers: 0, cap: cap},
		&exploreEnv{workers: h.host.Workers, cap: cap},
		&clusterEnv{nodes: h.host.Workers, cap: cap},
	} {
		r, err := e.run(1, nil)
		if err != nil {
			return nil, err
		}
		res.absorb(r.checked, r.why)
	}
	svc, err := openService(h, 4)
	if err != nil {
		return nil, err
	}
	r, err := svc.run(1, nil)
	svc.close()
	if err != nil {
		return nil, err
	}
	res.absorb(r.checked, r.why)
	return res, nil
}
