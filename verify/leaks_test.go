package verify_test

import (
	"errors"
	"fmt"
	"testing"

	"dampi/mpi"
	"dampi/verify"
)

// waitanyProgram: rank 0 posts a receive from ranks 1 and 2, lets both
// arrive behind a barrier and fails if its Waitany observes rank 2's first —
// an error only the Waitany completion choice point reaches.
func waitanyProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() != 0 {
		if err := p.Send(0, 0, nil, c); err != nil {
			return err
		}
		return p.Barrier(c)
	}
	reqs := make([]*mpi.Request, 2)
	for i := range reqs {
		var err error
		if reqs[i], err = p.Irecv(i+1, 0, c); err != nil {
			return err
		}
	}
	if err := p.Barrier(c); err != nil {
		return err
	}
	idx, _, err := p.Waitany(reqs)
	if err != nil {
		return err
	}
	if _, err := p.Wait(reqs[1-idx]); err != nil {
		return err
	}
	if idx == 1 {
		return errors.New("rank 2's message came first")
	}
	return nil
}

// TestChoicePointsSurviveLeakAndStatsChecks: the leak checks and the
// statistics read the runtime and add no tool layer, so they cannot hide a
// choice point. (Stacked below the verifier by a stack that composed no
// Waitany hooks, they cost the first run its Waitany epoch: one interleaving,
// no error, no decision point.)
func TestChoicePointsSurviveLeakAndStatsChecks(t *testing.T) {
	for _, workers := range []int{0, 2} {
		for _, leaks := range []bool{false, true} {
			for _, stats := range []bool{false, true} {
				t.Run(fmt.Sprintf("workers=%d/leaks=%v/stats=%v", workers, leaks, stats), func(t *testing.T) {
					res, err := verify.Run(verify.Config{
						Procs: 3, ChoicePoints: true, MixingBound: verify.Unbounded,
						CheckLeaks: leaks, CollectStats: stats, Workers: workers,
					}, waitanyProgram)
					if err != nil {
						t.Fatal(err)
					}
					if res.Interleavings != 2 || len(res.Errors) != 1 || res.DecisionPoints != 1 {
						t.Fatalf("%s decision_points=%d, want interleavings=2 errors=1 and one decision point",
							res.Summary(), res.DecisionPoints)
					}
					if (res.Leaks != nil) != leaks || (res.Stats != nil) != stats {
						t.Fatalf("Leaks %v, Stats %v: want them exactly when asked for", res.Leaks, res.Stats)
					}
					if leaks && (res.Leaks.HasCommLeak() || res.Leaks.HasRequestLeak()) {
						t.Errorf("spurious leaks: %v %v", res.Leaks.CommLeaks, res.Leaks.RequestLeaks)
					}
					// Rank 0: 2 Irecv, Barrier, Waitany, Wait; ranks 1, 2: Send, Barrier.
					if stats {
						if got, want := res.Stats.Totals().String(), "ops{procs=3 all=9 sendrecv=4 coll=3 wait=2}"; got != want {
							t.Errorf("Stats %s, want %s", got, want)
						}
					}
				})
			}
		}
	}
}

// TestDeadlockedRootRunReportsNoRequestLeak: two ranks that each Recv from
// the other deadlock. The request inside a blocking Recv was never the
// program's, so the deadlock is reported and no R-leak is.
func TestDeadlockedRootRunReportsNoRequestLeak(t *testing.T) {
	res, err := verify.Run(verify.Config{Procs: 2, CheckLeaks: true}, func(p *mpi.Proc) error {
		_, _, err := p.Recv(1-p.Rank(), 0, p.CommWorld())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocks != 1 || len(res.Errors) != 1 || !mpi.IsDeadlock(res.Errors[0].Err) {
		t.Fatalf("%s: want the deadlock reported", res.Summary())
	}
	if res.Leaks == nil || res.Leaks.HasRequestLeak() || res.Leaks.HasCommLeak() {
		t.Fatalf("leaks %v: want none", res.Leaks)
	}
}

// TestResumeSkipsLeaksAndStats: a resumed exploration did not run the
// canonical first run, so it reports neither.
func TestResumeSkipsLeaksAndStats(t *testing.T) {
	ckp := t.TempDir() + "/x.ckp.json"
	cfg := verify.Config{Procs: 3, MixingBound: verify.Unbounded, CheckLeaks: true, CollectStats: true,
		CheckpointFile: ckp, MaxInterleavings: 1}
	if _, err := verify.Run(cfg, racyProgram); err != nil {
		t.Fatal(err)
	}
	cfg.Resume, cfg.MaxInterleavings = true, 0
	res, err := verify.Run(cfg, racyProgram)
	if err != nil {
		t.Fatal(err)
	}
	if res.Leaks != nil || res.Stats != nil {
		t.Fatalf("resumed run reports Leaks %v, Stats %v; want neither", res.Leaks, res.Stats)
	}
}

func TestLeakReportString(t *testing.T) {
	rep := &verify.LeakReport{CommLeaks: []mpi.CommLeak{{Rank: 0}}}
	if rep.String() == "" {
		t.Fatal("empty String")
	}
}

func TestLeakReportStringFormat(t *testing.T) {
	rep := &verify.LeakReport{
		CommLeaks:    []mpi.CommLeak{{Rank: 0}, {Rank: 1}},
		RequestLeaks: []mpi.RequestLeak{{Rank: 0}},
	}
	if got, want := rep.String(), "leaks{comms=2 requests=1}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	empty := &verify.LeakReport{}
	if got, want := empty.String(), "leaks{comms=0 requests=0}"; got != want {
		t.Errorf("empty String() = %q, want %q", got, want)
	}
}
