package jobqueue

import (
	"strings"

	"dampi/internal/core"
	"dampi/internal/dcoord"
)

// JobReport is the persisted outcome of one job: the scheduling-independent
// measures of the merged core.Report, in a JSON-stable shape. The canonical
// first trace is deliberately dropped — it is a per-run debugging artifact,
// large, and not part of the service contract. Errors are in
// core.InterleavingResult's durable form: index, message, reproducer.
type JobReport struct {
	Workload          string                     `json:"workload"`
	Procs             int                        `json:"procs"`
	Interleavings     int                        `json:"interleavings"`
	Deadlocks         int                        `json:"deadlocks"`
	DecisionPoints    int                        `json:"decision_points"`
	AutoAbstracted    int                        `json:"auto_abstracted,omitempty"`
	WildcardsAnalyzed int                        `json:"wildcards_analyzed"`
	Capped            bool                       `json:"capped,omitempty"`
	Errors            []*core.InterleavingResult `json:"errors,omitempty"`
	Unsafe            []core.UnsafeReport        `json:"unsafe,omitempty"`
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
	return &JobReport{
		Workload:          spec.Workload,
		Procs:             spec.Procs,
		Interleavings:     rep.Interleavings,
		Deadlocks:         rep.Deadlocks,
		DecisionPoints:    rep.DecisionPoints,
		AutoAbstracted:    rep.AutoAbstracted,
		WildcardsAnalyzed: rep.WildcardsAnalyzed,
		Capped:            rep.Capped,
		Errors:            rep.Errors,
		Unsafe:            rep.Unsafe,
		Sampled:           rep.Sampled,
		SampledDistinct:   rep.SampledDistinct,
		SampleDepth:       spec.SampleDepth,
		SampledSchedules:  rep.SampledSchedules,
		ElapsedSec:        elapsedSec,
	}
}

// report rebuilds the printable part of the core.Report this was reduced
// from, so the text forms below come from the one renderer the CLI prints a
// local run with — the service smoke tests diff the two.
func (r *JobReport) report() *core.Report {
	return &core.Report{
		Interleavings:     r.Interleavings,
		Deadlocks:         r.Deadlocks,
		WildcardsAnalyzed: r.WildcardsAnalyzed,
		Capped:            r.Capped,
		Errors:            r.Errors,
		Unsafe:            r.Unsafe,
		Sampled:           r.Sampled,
		SampledDistinct:   r.SampledDistinct,
	}
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
