package verify_test

import (
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
