package jobqueue

import (
	"errors"
	"strings"

	"dampi/internal/core"
	"dampi/internal/dcoord"
)

// JobError is one failing interleaving, reduced to its durable form: its
// index in the exploration, the message, and the epoch-decisions reproducer
// (errors are not JSON-serializable, messages are).
type JobError struct {
	Index     int             `json:"index,omitempty"`
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
		je := JobError{Index: e.Index, Deadlock: e.Deadlock, Decisions: e.Decisions}
		if e.Err != nil {
			je.Message = e.Err.Error()
		}
		r.Errors = append(r.Errors, je)
	}
	return r
}

// report rebuilds the printable part of the core.Report this was reduced
// from, so the text forms below come from the one renderer the CLI prints a
// local run with — the service smoke tests diff the two.
func (r *JobReport) report() *core.Report {
	rep := &core.Report{
		Interleavings:     r.Interleavings,
		Deadlocks:         r.Deadlocks,
		WildcardsAnalyzed: r.WildcardsAnalyzed,
		Capped:            r.Capped,
		Unsafe:            r.Unsafe,
		Sampled:           r.Sampled,
		SampledDistinct:   r.SampledDistinct,
	}
	for _, e := range r.Errors {
		rep.Errors = append(rep.Errors, &core.InterleavingResult{
			Index: e.Index, Err: errors.New(e.Message), Deadlock: e.Deadlock, Decisions: e.Decisions,
		})
	}
	return rep
}

// Summary renders the one-line coverage summary (core.Report.Summary; no leak
// verdict: leak checks instrument the canonical first run of a local
// exploration and do not exist on the distributed path).
func (r *JobReport) Summary() string { return r.report().Summary() }

// Text renders the report exactly as the CLI prints one: the DAMPI summary
// line, the sampling statement, §V warnings, then each failing interleaving
// with its reproducer.
func (r *JobReport) Text() string {
	var b strings.Builder
	rep := r.report()
	rep.WriteHead(&b, rep.Summary(), r.SampleDepth)
	rep.WriteErrors(&b)
	return b.String()
}
