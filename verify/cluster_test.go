package verify_test

import (
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

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
}
