// Package jobqueue turns the dcoord cluster into a verification service: a
// persistent queue of verification jobs, durable across coordinator crashes,
// drained continuously onto an already-connected worker pool. Jobs move
// through queued → running → merging → done/failed; every transition is
// recorded in an append-only WAL with periodic snapshots, so a restarted
// service resumes exactly where the crashed one stopped (mid-job via the
// engine's frontier checkpoints). Recovery drops no acknowledged record
// silently: a torn final WAL line is cut off before anything is appended
// behind it, and damage with records after it is an error (OpenStore). A
// job's TTL holds while the service is busy, with that job too (Service.Run's
// sweeper). A job runs from the dcoord.Config a one-shot exploration does
// (Service.runOne); the package's two periods are constants in store.go.
package jobqueue

import (
	"fmt"
	"time"

	"dampi/internal/dcoord"
)

// State is a job's position in its lifecycle.
type State string

// The job state machine. Terminal states are Done and Failed; Running and
// Merging revert to Queued on crash recovery (the work is re-dispatched,
// resuming from the last frontier checkpoint when one exists).
const (
	// Queued: accepted and persisted, waiting for the cluster.
	Queued State = "queued"
	// Running: leases for this job are out on the worker pool.
	Running State = "running"
	// Merging: exploration complete, the merged report is being finalized
	// and persisted.
	Merging State = "merging"
	// Done: report persisted; terminal.
	Done State = "done"
	// Failed: the job cannot produce a report (validation, fatal worker
	// error, TTL expiry, cancellation); terminal.
	Failed State = "failed"
)

// transitions is the legal edge set. Running/Merging → Queued is the crash-
// recovery edge; Queued → Failed covers TTL expiry and cancellation before
// dispatch.
var transitions = map[State][]State{
	Queued:  {Running, Failed},
	Running: {Merging, Failed, Queued},
	Merging: {Done, Failed, Queued},
	Done:    {},
	Failed:  {},
}

// canTransition reports whether from → to is a legal state-machine edge.
func canTransition(from, to State) bool {
	for _, s := range transitions[from] {
		if s == to {
			return true
		}
	}
	return false
}

// active reports whether the state still holds (or will hold) cluster work —
// the states that participate in dedup by spec key.
func (s State) active() bool { return s == Queued || s == Running || s == Merging }

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// Job is one persisted verification job. It is the WAL/snapshot record and
// the REST representation — field names are the wire contract.
type Job struct {
	// ID is the queue-assigned identity ("j000042"), also the frame tag on
	// the cluster wire and the checkpoint/report file stem.
	ID string `json:"id"`
	// Spec is the self-contained workload description workers build the
	// program from.
	Spec dcoord.JobSpec `json:"spec"`
	// SpecKey is Spec.Key(): the dedup identity. Two active jobs never share
	// one.
	SpecKey string `json:"spec_key"`
	// State is the current lifecycle state.
	State State `json:"state"`
	// Error holds the failure reason for Failed jobs.
	Error string `json:"error,omitempty"`

	// SubmittedAt/StartedAt/FinishedAt stamp the lifecycle.
	SubmittedAt time.Time `json:"submitted_at"`
	StartedAt   time.Time `json:"started_at,omitempty"`
	FinishedAt  time.Time `json:"finished_at,omitempty"`
	// TTLSec, when > 0, is the complete-by budget from submission; a job
	// still queued or running past it is failed ("ttl expired"), whatever
	// else the service is doing.
	TTLSec int64 `json:"ttl_sec,omitempty"`
	// Attempts counts dispatches: 1 on first start, +1 per crash-recovery
	// requeue. A job recovered with Attempts > 0 resumes from its frontier
	// checkpoint instead of restarting.
	Attempts int `json:"attempts,omitempty"`
	// CancelRequested marks a DELETE on a running job; the drain is
	// asynchronous, so the flag persists the intent across a crash.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Summary counters, filled when the report lands (terminal Done).
	Interleavings int `json:"interleavings,omitempty"`
	ErrorsFound   int `json:"errors_found,omitempty"`
	Deadlocks     int `json:"deadlocks,omitempty"`
	// Sampled/SampledDistinct carry a sampling-mode job's schedule counts so
	// the service /metrics can aggregate them after the exploration drains
	// (the live dcoord metrics disappear with the job). Zero for exhaustive
	// jobs.
	Sampled         int  `json:"sampled,omitempty"`
	SampledDistinct int  `json:"sampled_distinct,omitempty"`
	HasReport       bool `json:"has_report,omitempty"`
}

// Deadline returns the complete-by instant, or zero when the job has no TTL.
func (j *Job) Deadline() time.Time {
	if j.TTLSec <= 0 {
		return time.Time{}
	}
	return j.SubmittedAt.Add(time.Duration(j.TTLSec) * time.Second)
}

// clone returns a private copy (Spec is all value fields).
func (j *Job) clone() *Job {
	cp := *j
	return &cp
}

// validateSpec normalizes and checks a submitted spec.
func validateSpec(spec *dcoord.JobSpec) error {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("jobqueue: %w", err)
	}
	return nil
}
