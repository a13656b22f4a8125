package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"dampi/mpi"
	"dampi/verify"
)

// serviceEnv is a running verification service: a job store under
// bench/out, verify.ServeQueue with its REST API on loopback, and W one-slot
// any-workload workers joined through verify.JoinQueue. It drives the
// service only over REST, from closed-loop clients: each sends its next job
// once the previous one's report is fetched.
type serviceEnv struct {
	jobs    int // jobs per repetition at size 1
	seed    int64
	dir     string
	q       *verify.QueueServer
	base    string
	http    *http.Client
	workers []*verify.Worker
	wg      sync.WaitGroup
	werrs   chan error

	tr   atomic.Pointer[tracer] // the current repetition's tracer, read by the job factory
	next atomic.Int64           // jobs submitted so far: no two jobs of this store share a spec key
}

const (
	serviceClients = 2
	pollEvery      = time.Millisecond
	jobDeadline    = 60 * time.Second
)

func openService(h *harness, jobs int) (*serviceEnv, error) {
	dir, err := h.tempDir("store")
	if err != nil {
		return nil, err
	}
	e := &serviceEnv{
		jobs: jobs, seed: int64(h.seed), dir: dir,
		http:  &http.Client{Timeout: 30 * time.Second},
		werrs: make(chan error, h.host.Workers),
	}
	e.q, err = verify.ServeQueue(verify.QueueConfig{WorkerAddr: "127.0.0.1:0", APIAddr: "127.0.0.1:0", StoreDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("verify.ServeQueue: %w", err)
	}
	e.base = "http://" + e.q.APIAddr().String()
	for i := 0; i < h.host.Workers; i++ {
		w, err := verify.JoinQueue(verify.ClusterConfig{
			Addr: e.q.WorkerAddr().String(), Slots: 1, WorkerName: fmt.Sprintf("bench-%d", i),
		}, e.factory)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("verify.JoinQueue: %w", err)
		}
		e.workers = append(e.workers, w)
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			if err := w.Run(); err != nil {
				e.werrs <- err
			}
		}()
	}
	return e, nil
}

// factory builds a job's program from its spec, as cmd/dampid does.
func (e *serviceEnv) factory(spec verify.JobSpec) (func(*mpi.Proc) error, error) {
	run, err := registryProgram(spec.Workload, spec.Procs, spec.Scale, spec.Iters)
	if err != nil {
		return nil, err
	}
	return spanProgram(run, e.tr.Load(), "replay"), nil
}

func (e *serviceEnv) close() {
	for _, w := range e.workers {
		w.Stop()
	}
	e.wg.Wait()
	e.q.Stop()
	e.http.CloseIdleConnections()
	os.RemoveAll(e.dir)
}

// jobTiming is what the client saw of one job, plus the lifecycle stamps the
// service reports in the job's REST representation.
type jobTiming struct {
	submit    time.Duration // POST /jobs round trip
	terminal  time.Duration // POST sent to terminal state observed
	reportGet time.Duration // GET /jobs/{id}/report round trip
	queueWait time.Duration // started_at - submitted_at
	run       time.Duration // finished_at - started_at
}

// serviceStats is the per-job detail of one repetition.
type serviceStats struct{ jobs []jobTiming }

func (e *serviceEnv) run(size float64, tr *tracer) (rep, error) {
	r, _, err := e.runJobs(scaled(e.jobs, size, 2), tr)
	return r, err
}

// runJobs submits n matmul p=8 k=0 jobs and follows each to its report.
// Every job's max_interleavings is 1000+i with i counting for the life of
// the service, so no two
// active jobs share a spec key and the store's dedup never fires; the cap
// is never reached, so the oracle is exact. The seed shuffles the order in
// which the batch's specs are submitted.
func (e *serviceEnv) runJobs(n int, tr *tracer) (rep, serviceStats, error) {
	e.tr.Store(tr)
	defer e.tr.Store(nil)
	first := e.next.Add(int64(n)) - int64(n)
	order := rand.New(rand.NewSource(e.seed + first)).Perm(n)

	var (
		mu     sync.Mutex
		r      rep
		stats  serviceStats
		cursor int
		runErr error
	)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if cursor >= n || runErr != nil {
					mu.Unlock()
					return
				}
				i := int(first) + order[cursor]
				cursor++
				mu.Unlock()

				jt, interleavings, why, err := e.oneJob(i, tr)
				mu.Lock()
				if err != nil {
					if runErr == nil {
						runErr = err
					}
					mu.Unlock()
					return
				}
				r.checked++
				r.replays += interleavings
				r.jobs = append(r.jobs, jt.terminal)
				stats.jobs = append(stats.jobs, jt)
				if why != "" {
					r.why = append(r.why, why)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	r.verdict = time.Since(start)
	select {
	case err := <-e.werrs:
		return r, stats, fmt.Errorf("service worker: %w", err)
	default:
	}
	return r, stats, runErr
}

// oneJob is the closed-loop client's unit: POST the spec, poll the job
// every millisecond until it is terminal, fetch the report. It returns a
// non-empty why when the job's verdict differs from the pinned answer.
func (e *serviceEnv) oneJob(i int, tr *tracer) (jt jobTiming, interleavings int, why string, err error) {
	spec := map[string]any{"workload": matmulProgram.name, "procs": matmulProgram.procs, "mixing_bound": 0, "max_interleavings": 1000 + i}
	body, err := json.Marshal(spec)
	if err != nil {
		return jt, 0, "", err
	}
	var sub struct {
		Job       *verify.Job `json:"job"`
		Duplicate bool        `json:"duplicate"`
	}
	posted := time.Now()
	if err := e.call(http.MethodPost, "/jobs", body, &sub); err != nil {
		return jt, 0, "", err
	}
	if sub.Job == nil {
		return jt, 0, "", fmt.Errorf("POST /jobs: reply without a job")
	}
	id := sub.Job.ID
	at := time.Now()
	jt.submit = at.Sub(posted)
	jobSpan := tr.add("POST /jobs", id, 0, posted, at)

	job := sub.Job
	state, since := job.State, at
	for !job.State.Terminal() {
		if time.Since(posted) > jobDeadline {
			return jt, 0, "", fmt.Errorf("job %s still %s after %v", id, job.State, jobDeadline)
		}
		time.Sleep(pollEvery)
		job = &verify.Job{}
		if err := e.call(http.MethodGet, "/jobs/"+id, nil, job); err != nil {
			return jt, 0, "", err
		}
		if job.State != state {
			now := time.Now()
			tr.add("state "+string(state), id, jobSpan, since, now)
			state, since = job.State, now
		}
	}
	jt.terminal = time.Since(posted)
	jt.queueWait = job.StartedAt.Sub(job.SubmittedAt)
	jt.run = job.FinishedAt.Sub(job.StartedAt)

	var report verify.JobReport
	got := time.Now()
	if job.HasReport {
		if err := e.call(http.MethodGet, "/jobs/"+id+"/report", nil, &report); err != nil {
			return jt, 0, "", err
		}
	}
	end := time.Now()
	jt.reportGet = end.Sub(got)
	tr.add("GET report", id, jobSpan, got, end)

	switch {
	case sub.Duplicate:
		why = "deduplicated against an active job"
	case job.State != "done":
		why = fmt.Sprintf("state %s (%s)", job.State, job.Error)
	case job.Attempts != 1:
		why = fmt.Sprintf("%d attempts: the job was requeued", job.Attempts)
	case report.Interleavings != expectServiceInterleavings || len(report.Errors) != 0 || report.Deadlocks != 0 || report.Capped:
		why = fmt.Sprintf("report interleavings=%d errors=%d deadlocks=%d capped=%v, pinned %d, 0, 0, uncapped",
			report.Interleavings, len(report.Errors), report.Deadlocks, report.Capped, expectServiceInterleavings)
	}
	if why != "" {
		why = fmt.Sprintf("service job %s: %s", id, why)
	}
	return jt, report.Interleavings, why, nil
}

// call performs one REST request and decodes the JSON reply into out.
func (e *serviceEnv) call(method, path string, body []byte, out any) error {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.http.Do(req)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("%s %s: status %d: %w", method, path, resp.StatusCode, err)
	}
	return nil
}
