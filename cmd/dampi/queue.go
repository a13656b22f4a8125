package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dampi/verify"
	"dampi/workloads"
)

// validateSpec vets a submitted job spec against the workload registry: the
// service-side gate that refuses unknown workloads (and too-small worlds) at
// submission instead of failing the job at dispatch.
func validateSpec(spec verify.JobSpec) error {
	wl, err := workloads.Get(spec.Workload)
	if err != nil {
		return err
	}
	if spec.Procs < wl.MinProcs {
		return fmt.Errorf("%s needs at least %d procs", wl.Name, wl.MinProcs)
	}
	return nil
}

// serveQueue runs the verification service: a persistent job queue with a
// REST API and dashboard on apiAddr, draining onto the dampid worker pool
// connected at workerAddr. The store directory makes it durable — kill the
// process, restart it, and queued or running jobs resume.
func serveQueue(workerAddr, apiAddr, storeDir string, leaseTTL time.Duration, ckpEvery int, verbose bool) {
	q, err := verify.ServeQueue(verify.QueueConfig{
		WorkerAddr:      workerAddr,
		APIAddr:         apiAddr,
		StoreDir:        storeDir,
		Validate:        validateSpec,
		LeaseTTL:        leaseTTL,
		CheckpointEvery: ckpEvery,
		OnEvent: func(line string) {
			if verbose {
				fmt.Println(line)
			}
		},
	})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("verification service: store %s, workers join at %s (dampid -join %s)\n",
		storeDir, q.WorkerAddr(), q.WorkerAddr())
	if addr := q.APIAddr(); addr != nil {
		fmt.Printf("REST API and dashboard on http://%s/ (POST /jobs, GET /queue, GET /metrics)\n", addr)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	signal.Stop(sig) // a second signal kills outright
	fmt.Fprintf(os.Stderr, "dampi: %v: draining service (the active job re-queues for the next start)\n", s)
	q.Stop()
	exit(0)
}

// submitJob submits one job to a verification service over REST and, with
// wait, polls it to completion and prints the report exactly as a local run
// would (so outputs diff cleanly against serial verification).
func submitJob(baseURL string, spec verify.JobSpec, ttl time.Duration, wait bool) {
	base := strings.TrimRight(baseURL, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	body := struct {
		verify.JobSpec
		TTLSec int64 `json:"ttl_sec,omitempty"`
	}{JobSpec: spec}
	if ttl > 0 {
		body.TTLSec = int64(ttl / time.Second)
	}
	payload, err := json.Marshal(&body)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		fatal(err)
	}
	var sub struct {
		Job       *verify.Job `json:"job"`
		Duplicate bool        `json:"duplicate"`
		Error     string      `json:"error"`
	}
	if err := decodeJSON(resp, &sub); err != nil {
		fatal(err)
	}
	if sub.Error != "" {
		fatal(fmt.Errorf("submit: %s", sub.Error))
	}
	if sub.Duplicate {
		fmt.Printf("job %s already covers this spec (%s)\n", sub.Job.ID, sub.Job.State)
	} else {
		fmt.Printf("job %s queued\n", sub.Job.ID)
	}
	if !wait {
		exit(0)
	}

	id := sub.Job.ID
	for {
		time.Sleep(250 * time.Millisecond)
		resp, err := http.Get(base + "/jobs/" + id)
		if err != nil {
			fatal(err)
		}
		var job verify.Job
		if err := decodeJSON(resp, &job); err != nil {
			fatal(err)
		}
		switch job.State {
		case "done":
			resp, err := http.Get(base + "/jobs/" + id + "/report?format=text")
			if err != nil {
				fatal(err)
			}
			text, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fatal(err)
			}
			fmt.Print(string(text))
			if job.ErrorsFound > 0 {
				exit(1)
			}
			exit(0)
		case "failed":
			fatal(fmt.Errorf("job %s failed: %s", id, job.Error))
		}
	}
}

// decodeJSON reads one JSON response body (closing it), surfacing API error
// bodies as errors.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 400 {
		var apiErr struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, apiErr.Error)
		}
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}
