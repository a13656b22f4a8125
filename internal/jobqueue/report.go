package jobqueue

import (
	"fmt"
	"strings"

	"dampi/internal/core"
	"dampi/internal/dcoord"
)

// JobError is one failing interleaving, reduced to its durable form: the
// message plus the epoch-decisions reproducer (errors are not JSON-
// serializable, messages are).
type JobError struct {
	Message   string          `json:"message"`
	Deadlock  bool            `json:"deadlock,omitempty"`
	Decisions *core.Decisions `json:"decisions"`
}

// JobReport is the persisted outcome of one job: the scheduling-independent
// measures of the merged core.Report, in a JSON-stable shape. The canonical
// first trace is deliberately dropped — it is a per-run debugging artifact,
// large, and not part of the service contract.
type JobReport struct {
	Workload          string              `json:"workload"`
	Procs             int                 `json:"procs"`
	Interleavings     int                 `json:"interleavings"`
	Deadlocks         int                 `json:"deadlocks"`
	DecisionPoints    int                 `json:"decision_points"`
	AutoAbstracted    int                 `json:"auto_abstracted,omitempty"`
	WildcardsAnalyzed int                 `json:"wildcards_analyzed"`
	Capped            bool                `json:"capped,omitempty"`
	Errors            []JobError          `json:"errors,omitempty"`
	Unsafe            []core.UnsafeReport `json:"unsafe,omitempty"`
	// Sampling-mode aggregates (zero/absent for exhaustive jobs): the walk-
	// step schedule count, the distinct decision-vector count among them, the
	// job's exhaustive/sampled depth boundary, and the sorted distinct vector
	// dump (the reproducibility artifact ci/sample_smoke.sh diffs).
	Sampled          int      `json:"sampled,omitempty"`
	SampledDistinct  int      `json:"sampled_distinct,omitempty"`
	SampleDepth      int      `json:"sample_depth,omitempty"`
	SampledSchedules []string `json:"sampled_schedules,omitempty"`
	ElapsedSec       float64  `json:"elapsed_sec"`
}

// NewJobReport reduces a merged exploration report to its durable form.
// Errors keep the report's order, which the coordinator has already made
// deterministic (sorted by reproducer signature).
func NewJobReport(spec dcoord.JobSpec, rep *core.Report, elapsedSec float64) *JobReport {
	r := &JobReport{
		Workload:          spec.Workload,
		Procs:             spec.Procs,
		Interleavings:     rep.Interleavings,
		Deadlocks:         rep.Deadlocks,
		DecisionPoints:    rep.DecisionPoints,
		AutoAbstracted:    rep.AutoAbstracted,
		WildcardsAnalyzed: rep.WildcardsAnalyzed,
		Capped:            rep.Capped,
		Unsafe:            rep.Unsafe,
		Sampled:           rep.Sampled,
		SampledDistinct:   rep.SampledDistinct,
		SampleDepth:       spec.SampleDepth,
		SampledSchedules:  rep.SampledSchedules,
		ElapsedSec:        elapsedSec,
	}
	for _, e := range rep.Errors {
		je := JobError{Deadlock: e.Deadlock, Decisions: e.Decisions}
		if e.Err != nil {
			je.Message = e.Err.Error()
		}
		r.Errors = append(r.Errors, je)
	}
	return r
}

// Summary renders the one-line coverage summary, in exactly the form the CLI
// prints for a local run (verify.Result.Summary without the leak segment —
// leak checks instrument the canonical first run of a local exploration and
// do not exist on the distributed path). The service smoke test diffs this
// output against a serial `dampi` run, so the formats must not drift.
func (r *JobReport) Summary() string {
	s := fmt.Sprintf("interleavings=%d errors=%d deadlocks=%d wildcards=%d",
		r.Interleavings, len(r.Errors), r.Deadlocks, r.WildcardsAnalyzed)
	if r.Capped {
		s += " (capped)"
	}
	if r.Sampled > 0 {
		s += fmt.Sprintf(" sampled=%d distinct=%d", r.Sampled, r.SampledDistinct)
	}
	if len(r.Unsafe) > 0 {
		s += fmt.Sprintf(" unsafe-patterns=%d", len(r.Unsafe))
	}
	return s
}

// Text renders the report exactly as the CLI prints one: the DAMPI summary
// line, §V warnings, then each failing interleaving with its reproducer.
func (r *JobReport) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "DAMPI: %s\n", r.Summary())
	if r.Sampled > 0 {
		fmt.Fprintf(&b, "  schedule sampling: exhaustive below depth %d, sampled %d schedules beyond, %d distinct\n",
			r.SampleDepth, r.Sampled, r.SampledDistinct)
	}
	for _, u := range r.Unsafe {
		fmt.Fprintf(&b, "  warning: %v\n", u)
	}
	for i, e := range r.Errors {
		fmt.Fprintf(&b, "  error in interleaving #%d: %s\n", i+1, e.Message)
		fmt.Fprintf(&b, "    reproducer: %v\n", e.Decisions)
	}
	return b.String()
}
