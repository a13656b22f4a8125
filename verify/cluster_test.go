package verify_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	"dampi/mpi"
	"dampi/verify"
)

// TestClusterMatchesLocalRun: a coordinator plus two workers driven through
// the public Serve/Join API produce the same report a local Run does.
func TestClusterMatchesLocalRun(t *testing.T) {
	serial, err := verify.Run(verify.Config{Procs: 3}, racyProgram)
	if err != nil {
		t.Fatalf("serial run: %v", err)
	}

	ccfg := verify.ClusterConfig{
		Config:   verify.Config{Procs: 3},
		Workload: "racy",
		Addr:     "127.0.0.1:0",
	}
	c, err := verify.Serve(ccfg)
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	wcfg := ccfg
	wcfg.Addr = c.Addr().String()
	var wg sync.WaitGroup
	var ws []*verify.Worker
	for i := 0; i < 2; i++ {
		wcfg.WorkerName = string(rune('a' + i))
		w, err := verify.Join(wcfg, racyProgram)
		if err != nil {
			t.Fatalf("Join: %v", err)
		}
		ws = append(ws, w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(); err != nil {
				t.Errorf("worker: %v", err)
			}
		}()
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	// The job is a handful of replays: it can finish on the first worker
	// before the second has dialed, and a late worker would redial the closed
	// listener until its dial budget ran out.
	for _, w := range ws {
		w.Stop()
	}
	wg.Wait()

	if res.Interleavings != serial.Interleavings || res.Deadlocks != serial.Deadlocks ||
		res.DecisionPoints != serial.DecisionPoints || res.WildcardsAnalyzed != serial.WildcardsAnalyzed {
		t.Errorf("cluster counts differ from serial:\ncluster: %s\nserial:  %s", res.Summary(), serial.Summary())
	}
	if len(res.Errors) != len(serial.Errors) {
		t.Fatalf("cluster found %d errors, serial %d", len(res.Errors), len(serial.Errors))
	}
	lines := func(r *verify.Result) []string {
		var out []string
		for _, e := range r.Errors {
			out = append(out, e.Decisions.String()+": "+e.Err.Error())
		}
		sort.Strings(out)
		return out
	}
	ce, se := lines(res), lines(serial)
	for i := range ce {
		if ce[i] != se[i] {
			t.Errorf("error %d differs:\ncluster: %s\nserial:  %s", i, ce[i], se[i])
		}
	}

	// The status surface reports completion.
	if st := c.Status(); st.State != "done" {
		t.Errorf("state = %q after Wait, want done", st.State)
	}
	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/status after completion: %v (%v)", err, resp)
	}
	resp.Body.Close()
}

// TestServeRejectsLocalOnlyOptions: options whose implementation requires
// running the program in the coordinator process are refused up front.
func TestServeRejectsLocalOnlyOptions(t *testing.T) {
	base := verify.ClusterConfig{Config: verify.Config{Procs: 3}, Workload: "racy", Addr: "127.0.0.1:0"}
	cases := []struct {
		name   string
		mutate func(*verify.ClusterConfig)
		want   string
	}{
		{"leaks", func(c *verify.ClusterConfig) { c.CheckLeaks = true }, "CheckLeaks"},
		{"stats", func(c *verify.ClusterConfig) { c.CollectStats = true }, "CollectStats"},
		{"callback", func(c *verify.ClusterConfig) { c.OnInterleaving = func(*verify.InterleavingResult) {} }, "OnInterleaving"},
		{"workers", func(c *verify.ClusterConfig) { c.Workers = 4 }, "Workers"},
		{"no-workload", func(c *verify.ClusterConfig) { c.Workload = "" }, "Workload"},
		{"resume", func(c *verify.ClusterConfig) { c.Resume = true }, "CheckpointFile"},
		{"prune-hints", func(c *verify.ClusterConfig) { c.PruneHints = someHints }, "PruneHints"},
		{"unknown-mode", func(c *verify.ClusterConfig) { c.Mode = "quantum" }, "Mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			_, err := verify.Serve(cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Serve error = %v, want mention of %s", err, tc.want)
			}
		})
	}
}

// someHints is a non-empty static prune-hint table.
var someHints = verify.NewPruneHints(map[verify.PruneHintKey][]int{{Rank: 0, Tag: 0}: {1}})

// TestJoinValidation: worker-side misconfiguration fails before dialing.
func TestJoinValidation(t *testing.T) {
	good := verify.ClusterConfig{Config: verify.Config{Procs: 3}, Workload: "racy", Addr: "127.0.0.1:1"}
	if _, err := verify.Join(good, nil); err == nil {
		t.Error("nil program accepted")
	}
	bad := good
	bad.Workload = ""
	if _, err := verify.Join(bad, racyProgram); err == nil {
		t.Error("empty workload accepted")
	}
	bad = good
	bad.Procs = 0
	if _, err := verify.Join(bad, racyProgram); err == nil {
		t.Error("Procs=0 accepted")
	}
	// A hint table was dropped silently: the worker would replay unpruned
	// what its owner believes is pruned.
	bad = good
	bad.PruneHints = someHints
	if _, err := verify.Join(bad, racyProgram); err == nil || !strings.Contains(err.Error(), "PruneHints") {
		t.Errorf("Join with PruneHints: %v, want an error naming the field", err)
	}
}

// TestOneShotHandshakeChecksWorkloadParameters: -scale and -iters shape the
// program, so they are part of the identity a one-shot coordinator's handshake
// compares, as a job queue's always was: a worker built at scale 50 must not
// merge results into an exploration built at scale 100. A worker that states
// no scale (0, a library caller) still joins — as does one that states no
// workload at all and builds the announced spec.
func TestOneShotHandshakeChecksWorkloadParameters(t *testing.T) {
	serial, err := verify.Run(verify.Config{Procs: 3}, racyProgram)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := verify.ClusterConfig{Config: verify.Config{Procs: 3}, Workload: "racy", Addr: "127.0.0.1:0", Scale: 100, Iters: 4}
	c, err := verify.Serve(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Stop()
	if spec, err := ccfg.JobSpec(); err != nil || spec.Workload != "racy" || spec.Procs != 3 || spec.Scale != 100 || spec.Iters != 4 {
		t.Errorf("the coordinator's JobSpec = %+v (err %v)", spec, err)
	}

	wcfg := ccfg
	wcfg.Addr = c.Addr().String()
	for name, mutate := range map[string]func(*verify.ClusterConfig){
		"scale": func(c *verify.ClusterConfig) { c.Scale = 50 },
		"iters": func(c *verify.ClusterConfig) { c.Iters = 2 },
	} {
		bad := wcfg
		mutate(&bad)
		w, err := verify.Join(bad, racyProgram)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(); err == nil || !strings.Contains(err.Error(), name+" mismatch") {
			t.Errorf("worker with another %s: Run = %v, want the handshake to refuse it by name", name, err)
		}
	}
	if st := c.Status(); st.Interleavings != 0 || len(st.Workers) != 0 {
		t.Fatalf("a refused worker was given work: %+v", st)
	}

	// Unknown scale joins pinned; no workload at all joins any-workload.
	wcfg.Scale, wcfg.Iters = 0, 0
	pinned, err := verify.Join(wcfg, racyProgram)
	if err != nil {
		t.Fatal(err)
	}
	anyw, err := verify.JoinQueue(verify.ClusterConfig{Addr: wcfg.Addr}, func(spec verify.JobSpec) (func(*mpi.Proc) error, error) {
		if spec.Workload != "racy" || spec.Procs != 3 || spec.Scale != 100 {
			return nil, fmt.Errorf("announced %+v", spec)
		}
		return racyProgram, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for _, w := range []*verify.Worker{pinned, anyw} {
		go func() { errs <- w.Run() }()
	}
	res, err := c.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// A worker that had not dialled before the handful of replays was over
	// would otherwise redial the closed listener.
	pinned.Stop()
	anyw.Stop()
	for range 2 {
		if err := <-errs; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
	if res.Summary() != serial.Summary() {
		t.Errorf("cluster: %s\nserial:  %s", res.Summary(), serial.Summary())
	}
}
