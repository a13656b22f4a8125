package verify_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dampi/mpi"
	"dampi/verify"
)

// typeConfusedFanin is the fanin workload with the check its master leaves
// out: rank 0 requires the control sum rank 1 sends. Rank 2 sends raw bytes
// with the same tag, and the runtime matcher delivers any payload to any
// receive, so one match of rank 0's wildcard decodes garbage and fails.
// Rank 2 waits for a note from rank 1 before its control send, and rank 3
// pumps rank 0's Lamport clock, so rank 2's send is recorded as the late
// alternate and not as the self run's match.
func typeConfusedFanin(p *mpi.Proc) error {
	const pings, tagPing, tagCtl, tagNote = 4, 1, 2, 3
	c := p.CommWorld()
	switch p.Rank() {
	case 0:
		for i := 0; i < pings; i++ {
			if _, _, err := p.Recv(3, tagPing, c); err != nil {
				return err
			}
		}
		//mpilint:ignore wildtype -- the seeded bug: rank 2's raw bytes can match here
		ctl, _, err := p.Recv(mpi.AnySource, tagCtl, c)
		if err != nil {
			return err
		}
		sum := 0.0
		for _, v := range mpi.DecodeFloat64(ctl) {
			sum += v
		}
		if sum != 6 {
			return fmt.Errorf("control sum %v, want 6", sum)
		}
		st, err := p.Probe(mpi.AnySource, tagCtl, c)
		if err != nil {
			return err
		}
		_, _, err = p.Recv(st.Source, tagCtl, c)
		return err
	case 1:
		if err := p.Send(0, tagCtl, mpi.EncodeFloat64(1, 2, 3), c); err != nil {
			return err
		}
		return p.Send(2, tagNote, nil, c)
	case 2:
		if _, _, err := p.Recv(1, tagNote, c); err != nil {
			return err
		}
		return p.Send(0, tagCtl, []byte("ctl"), c)
	case 3:
		for i := 0; i < pings; i++ {
			if err := p.Send(0, tagPing, nil, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestTypeConfusedFaninErrorFoundByEveryEngine: the garbage decode is a
// reachable match, so every engine — one slot, two slots, a one-shot
// cluster and the job queue — reports its error, at k=0 and unbounded. A
// search that skipped the match because its payload type cannot be decoded
// here would report the program clean.
func TestTypeConfusedFaninErrorFoundByEveryEngine(t *testing.T) {
	const procs, workload = 4, "fanin-typed"
	engines := []struct {
		name string
		run  func(t *testing.T, k int) (interleavings int, errs []string)
	}{
		{"workers-0", func(t *testing.T, k int) (int, []string) {
			return runLocal(t, verify.Config{Procs: procs, MixingBound: k})
		}},
		{"workers-2", func(t *testing.T, k int) (int, []string) {
			return runLocal(t, verify.Config{Procs: procs, MixingBound: k, Workers: 2})
		}},
		{"serve-join", func(t *testing.T, k int) (int, []string) {
			ccfg := verify.ClusterConfig{Config: verify.Config{Procs: procs, MixingBound: k}, Workload: workload, Addr: "127.0.0.1:0"}
			c, err := verify.Serve(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Stop()
			ccfg.Addr = c.Addr().String()
			w, err := verify.Join(ccfg, typeConfusedFanin)
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan error, 1)
			go func() { done <- w.Run() }()
			res, err := c.Wait()
			if err != nil {
				t.Fatal(err)
			}
			w.Stop()
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
			return res.Interleavings, messages(res.Errors)
		}},
		{"queue", func(t *testing.T, k int) (int, []string) {
			return runQueued(t, verify.ClusterConfig{Config: verify.Config{Procs: procs, MixingBound: k}, Workload: workload})
		}},
	}
	for _, k := range []int{0, verify.Unbounded} {
		for _, e := range engines {
			t.Run(fmt.Sprintf("k=%d/%s", k, e.name), func(t *testing.T) {
				n, errs := e.run(t, k)
				if n != 2 || len(errs) != 1 || !strings.Contains(errs[0], "control sum 0, want 6") {
					t.Errorf("interleavings=%d errors=%q, want 2 interleavings and the control-sum error", n, errs)
				}
			})
		}
	}
}

func runLocal(t *testing.T, cfg verify.Config) (int, []string) {
	t.Helper()
	res, err := verify.Run(cfg, typeConfusedFanin)
	if err != nil {
		t.Fatal(err)
	}
	return res.Interleavings, messages(res.Errors)
}

// runQueued submits ccfg's job to an in-process verification service, drains
// it on one any-workload worker and reads the stored report back over REST.
func runQueued(t *testing.T, ccfg verify.ClusterConfig) (int, []string) {
	t.Helper()
	spec, err := ccfg.JobSpec()
	if err != nil {
		t.Fatal(err)
	}
	q, err := verify.ServeQueue(verify.QueueConfig{WorkerAddr: "127.0.0.1:0", StoreDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Stop()
	w, err := verify.JoinQueue(verify.ClusterConfig{Addr: q.WorkerAddr().String()}, func(s verify.JobSpec) (func(*mpi.Proc) error, error) {
		if s.Workload != spec.Workload {
			return nil, fmt.Errorf("unknown workload %q", s.Workload)
		}
		return typeConfusedFanin, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run() }()
	defer func() {
		w.Stop()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	job, _, err := q.Submit(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		rec := httptest.NewRecorder()
		q.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+job.ID+"/report", nil))
		if rec.Code == http.StatusOK {
			var rep verify.JobReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatal(err)
			}
			return rep.Interleavings, messages(rep.Errors)
		}
		if rec.Code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("GET report: %d %s", rec.Code, rec.Body)
		}
	}
}

func messages(errs []*verify.InterleavingResult) []string {
	var out []string
	for _, e := range errs {
		out = append(out, e.Err.Error())
	}
	return out
}
