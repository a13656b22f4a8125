package verify_test

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"dampi/internal/isp"
	"dampi/mpi"
	"dampi/verify"
)

// TestRankCoroutinesDieWithTheirOwner: the rank coroutines a replay engine
// carries from world to world are parked goroutines, which no GC collects, so
// every entry point must stop the ones it started before it returns. After
// each, the goroutine count is back at its baseline without a collection in
// between (the short grace is for worker and connection goroutines on their
// way out; a parked coroutine would outlast any grace).
func TestRankCoroutinesDieWithTheirOwner(t *testing.T) {
	surfaces := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"verify.Run serial", func(t *testing.T) {
			if _, err := verify.Run(verify.Config{Procs: 3}, racyProgram); err != nil {
				t.Fatal(err)
			}
		}},
		{"verify.Run Workers 4", func(t *testing.T) {
			if _, err := verify.Run(verify.Config{Procs: 3, Workers: 4}, racyProgram); err != nil {
				t.Fatal(err)
			}
		}},
		{"verify.Replay", func(t *testing.T) {
			if _, err := verify.Replay(3, racyProgram, nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"native world", func(t *testing.T) {
			mpi.NewWorld(mpi.Config{Procs: 3}).Run(racyProgram)
		}},
		{"isp exploration", func(t *testing.T) {
			if _, err := isp.NewExplorer(isp.Config{Procs: 3, Program: racyProgram}).Explore(); err != nil {
				t.Fatal(err)
			}
		}},
		{"verify.Serve + verify.Join", func(t *testing.T) {
			ccfg := verify.ClusterConfig{Config: verify.Config{Procs: 3}, Workload: "racy", Addr: "127.0.0.1:0"}
			c, err := verify.Serve(ccfg)
			if err != nil {
				t.Fatal(err)
			}
			wcfg := ccfg
			wcfg.Addr = c.Addr().String()
			w, err := verify.Join(wcfg, racyProgram)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := w.Run(); err != nil {
					t.Errorf("worker: %v", err)
				}
			}()
			if _, err := c.Wait(); err != nil {
				t.Error(err)
			}
			w.Stop()
			wg.Wait()
		}},
		{"verify.ServeQueue + verify.JoinQueue, three jobs", func(t *testing.T) {
			q, err := verify.ServeQueue(verify.QueueConfig{WorkerAddr: "127.0.0.1:0", StoreDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer q.Stop()
			w, err := verify.JoinQueue(verify.ClusterConfig{Addr: q.WorkerAddr().String()}, func(verify.JobSpec) (func(*mpi.Proc) error, error) {
				return racyProgram, nil
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
			// Two jobs of one shape, which the worker's slot runs on one
			// context, then one of another world size, which gets its own.
			for i, procs := range []int{3, 3, 4} {
				job, _, err := q.Submit(verify.JobSpec{Workload: "racy", Procs: procs, MaxInterleavings: 100 + i}, 0)
				if err != nil {
					t.Fatal(err)
				}
				waitForReport(t, q, job.ID)
			}
		}},
	}
	for _, s := range surfaces {
		t.Run(s.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			s.run(t)
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines after, %d before:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// waitForReport blocks until the service has stored job id's report.
func waitForReport(t *testing.T, q *verify.QueueServer, id string) {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		rec := httptest.NewRecorder()
		q.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/"+id+"/report", nil))
		if rec.Code == http.StatusOK {
			return
		}
		if rec.Code != http.StatusConflict || time.Now().After(deadline) {
			t.Fatalf("GET report of %s: %d %s", id, rec.Code, rec.Body)
		}
	}
}
