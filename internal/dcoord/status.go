package dcoord

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"time"
)

// Status is the coordinator's live state snapshot, served as JSON on
// /status. Field names are the wire contract; dashboards read them.
type Status struct {
	State         string  `json:"state"` // exploring | draining | done | failed
	Workload      string  `json:"workload,omitempty"`
	Procs         int     `json:"procs"`
	ElapsedSec    float64 `json:"elapsed_sec"`
	Interleavings int     `json:"interleavings"`
	Errors        int     `json:"errors"`
	Deadlocks     int     `json:"deadlocks"`
	DecisionPts   int     `json:"decision_points"`
	// FrontierDepth counts the subtrees waiting to be leased; LeasesGranted
	// the leases handed out so far (interleavings ÷ leases_granted is the
	// replays one round trip carries); DoneSet the leased subtrees explored,
	// held for dedup — one entry per lease root, not per replay.
	FrontierDepth int     `json:"frontier_depth"`
	ActiveLeases  int     `json:"active_leases"`
	LeasesGranted uint64  `json:"leases_granted"`
	DoneSet       int     `json:"done_set_size"`
	Requeues      int     `json:"requeues"`
	MeanPerSec    float64 `json:"per_second_mean"`
	WindowPerSec  float64 `json:"per_second_window"`
	Capped        bool    `json:"capped,omitempty"`
	// Sampled counts walk-step schedules merged in sampling mode (0 for
	// exhaustive explorations); SampledDistinct is the size of the distinct
	// decision-vector set among them.
	Sampled         int `json:"sampled,omitempty"`
	SampledDistinct int `json:"sampled_distinct,omitempty"`
	// Frames and bytes moved over worker connections since the listener
	// started (for a job-queue job: since the service did — the pool's
	// connections outlive jobs), as seen by the coordinator.
	FramesIn     int64 `json:"frames_in"`
	FramesOut    int64 `json:"frames_out"`
	WireBytesIn  int64 `json:"wire_bytes_in"`
	WireBytesOut int64 `json:"wire_bytes_out"`
	// CheckpointsWritten counts the checkpoint files written, two fsyncs each:
	// by this exploration, and for a job-queue job by the service's jobs
	// before it too.
	CheckpointsWritten int64          `json:"checkpoints_written"`
	Workers            []WorkerStatus `json:"workers"`
}

// WorkerStatus is one connected worker's live state.
type WorkerStatus struct {
	Name           string  `json:"name"`
	Addr           string  `json:"addr"`
	Slots          int     `json:"slots"`
	ActiveLeases   int     `json:"active_leases"`
	Completed      int     `json:"completed"`
	ConnectedSec   float64 `json:"connected_sec"`
	OldestLeaseSec float64 `json:"oldest_lease_sec"`
}

// Status builds a snapshot of the exploration.
func (c *Coordinator) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now() // under mu: the rate tracker takes its samples in time order
	p := c.rate.Snapshot(c.start, now, c.report.Interleavings)
	st := Status{
		State:           "exploring",
		Workload:        c.cfg.Fingerprint.Workload,
		Procs:           c.cfg.Fingerprint.Procs,
		ElapsedSec:      p.Elapsed.Seconds(),
		Interleavings:   c.report.Interleavings,
		Errors:          len(c.report.Errors),
		Deadlocks:       c.report.Deadlocks,
		DecisionPts:     c.report.DecisionPoints,
		FrontierDepth:   len(c.front.Tasks),
		ActiveLeases:    len(c.leases),
		LeasesGranted:   c.nextLease,
		Requeues:        c.requeues,
		MeanPerSec:      p.PerSecond,
		WindowPerSec:    p.WindowPerSecond,
		Capped:          c.report.Capped,
		Sampled:         c.report.Sampled,
		SampledDistinct: c.report.SampledDistinct,
		FramesIn:        c.wire.framesIn.Load(),
		FramesOut:       c.wire.framesOut.Load(),
		WireBytesIn:     c.wire.bytesIn.Load(),
		WireBytesOut:    c.wire.bytesOut.Load(),

		CheckpointsWritten: c.ckpBefore + c.ckp.Written(),
	}
	for _, done := range c.keys {
		if done {
			st.DoneSet++
		}
	}
	switch {
	case c.runErr != nil:
		st.State = "failed"
	case c.finished:
		st.State = "done"
	case c.stopped:
		st.State = "draining"
	}
	for _, w := range c.workers {
		ws := WorkerStatus{
			Name:         w.name,
			Addr:         w.conn.RemoteAddr().String(),
			Slots:        w.slots,
			ActiveLeases: w.active,
			Completed:    w.completed,
			ConnectedSec: now.Sub(w.since).Seconds(),
		}
		if i := slices.IndexFunc(c.leases, func(l *lease) bool { return l.conn == w }); i >= 0 {
			ws.OldestLeaseSec = now.Sub(c.leases[i].granted).Seconds() // grant order: the first is the oldest
		}
		st.Workers = append(st.Workers, ws)
	}
	sort.Slice(st.Workers, func(i, j int) bool { return st.Workers[i].Name < st.Workers[j].Name })
	return st
}

// StatusHandler returns the coordinator's HTTP surface: /status (JSON
// snapshot) and /metrics (Prometheus text format), so a long-running cluster
// exploration is observable while it runs.
func (c *Coordinator) StatusHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(c.Status())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		st := c.Status()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		var up int
		if st.State == "exploring" || st.State == "draining" {
			up = 1
		}
		fmt.Fprintf(w, "# HELP dampi_up Whether the exploration is still running.\n# TYPE dampi_up gauge\ndampi_up %d\n", up)
		WriteMetrics(w, st)
	})
	return mux
}

// WriteMetrics renders one exploration's Status in Prometheus text
// exposition format — the metric body shared by the single-job /metrics
// endpoint and the job-queue service's (which prefixes its own service-level
// gauges). The dampi_up metric is NOT written here: its meaning differs
// between the two surfaces (exploration running vs. service alive).
func WriteMetrics(w io.Writer, st Status) {
	fmt.Fprintf(w, "# HELP dampi_interleavings_total Replays merged into the report.\n# TYPE dampi_interleavings_total counter\ndampi_interleavings_total %d\n", st.Interleavings)
	fmt.Fprintf(w, "# HELP dampi_interleavings_per_second Trailing-window completion rate.\n# TYPE dampi_interleavings_per_second gauge\ndampi_interleavings_per_second %g\n", st.WindowPerSec)
	fmt.Fprintf(w, "# HELP dampi_frontier_depth Pending subtree tasks.\n# TYPE dampi_frontier_depth gauge\ndampi_frontier_depth %d\n", st.FrontierDepth)
	fmt.Fprintf(w, "# HELP dampi_active_leases Leases currently held by workers.\n# TYPE dampi_active_leases gauge\ndampi_active_leases %d\n", st.ActiveLeases)
	fmt.Fprintf(w, "# HELP dampi_leases_total Leases granted.\n# TYPE dampi_leases_total counter\ndampi_leases_total %d\n", st.LeasesGranted)
	fmt.Fprintf(w, "# HELP dampi_done_set_size Explored lease roots (one per subtree leased, not per replay) held for at-least-once dedup.\n# TYPE dampi_done_set_size gauge\ndampi_done_set_size %d\n", st.DoneSet)
	fmt.Fprintf(w, "# HELP dampi_requeues_total Leases lost and requeued (crash, hang, disconnect).\n# TYPE dampi_requeues_total counter\ndampi_requeues_total %d\n", st.Requeues)
	fmt.Fprintf(w, "# HELP dampi_errors_total Failing interleavings found.\n# TYPE dampi_errors_total counter\ndampi_errors_total %d\n", st.Errors)
	fmt.Fprintf(w, "# HELP dampi_deadlocks_total Deadlocked interleavings found.\n# TYPE dampi_deadlocks_total counter\ndampi_deadlocks_total %d\n", st.Deadlocks)
	fmt.Fprintf(w, "# HELP dampi_sampled_schedules_total Walk-step schedules merged in sampling mode.\n# TYPE dampi_sampled_schedules_total counter\ndampi_sampled_schedules_total %d\n", st.Sampled)
	fmt.Fprintf(w, "# HELP dampi_sample_duplicates_total Sampled schedules whose decision vector was already sampled.\n# TYPE dampi_sample_duplicates_total counter\ndampi_sample_duplicates_total %d\n", st.Sampled-st.SampledDistinct)
	fmt.Fprintf(w, "# HELP dampi_wire_frames_total Frames moved over worker connections.\n# TYPE dampi_wire_frames_total counter\ndampi_wire_frames_total{dir=\"in\"} %d\ndampi_wire_frames_total{dir=\"out\"} %d\n", st.FramesIn, st.FramesOut)
	fmt.Fprintf(w, "# HELP dampi_wire_bytes_total Bytes moved over worker connections, frame headers included.\n# TYPE dampi_wire_bytes_total counter\ndampi_wire_bytes_total{dir=\"in\"} %d\ndampi_wire_bytes_total{dir=\"out\"} %d\n", st.WireBytesIn, st.WireBytesOut)
	fmt.Fprintf(w, "# HELP dampi_checkpoints_written_total Frontier checkpoint files written, two fsyncs each (the file and its directory).\n# TYPE dampi_checkpoints_written_total counter\ndampi_checkpoints_written_total %d\n", st.CheckpointsWritten)
	fmt.Fprintf(w, "# HELP dampi_workers_connected Connected workers.\n# TYPE dampi_workers_connected gauge\ndampi_workers_connected %d\n", len(st.Workers))
	fmt.Fprintf(w, "# HELP dampi_worker_lease_age_seconds Age of each worker's oldest outstanding lease.\n# TYPE dampi_worker_lease_age_seconds gauge\n")
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "dampi_worker_lease_age_seconds{worker=%q} %g\n", ws.Name, ws.OldestLeaseSec)
	}
	fmt.Fprintf(w, "# HELP dampi_worker_completed_total Replays merged per worker session.\n# TYPE dampi_worker_completed_total counter\n")
	for _, ws := range st.Workers {
		fmt.Fprintf(w, "dampi_worker_completed_total{worker=%q} %d\n", ws.Name, ws.Completed)
	}
}
