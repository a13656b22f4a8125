package jobqueue

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"dampi/internal/dcoord"
)

//go:embed dashboard.html
var dashboardHTML []byte

// submitRequest is the POST /jobs body: the job spec plus queue options.
// Clock and transport are the engine's numeric enums (0 = Lamport, 0 =
// Separate — the defaults); the CLI maps its string flags onto them.
type submitRequest struct {
	dcoord.JobSpec
	// TTLSec, when > 0, fails the job if it has not completed this many
	// seconds after submission.
	TTLSec int64 `json:"ttl_sec,omitempty"`
}

// submitResponse acknowledges a submission.
type submitResponse struct {
	Job *Job `json:"job"`
	// Duplicate reports that an active job already covers this spec; Job is
	// that job.
	Duplicate bool `json:"duplicate,omitempty"`
}

// ServiceStatus is GET /status: the service-level view, with the active
// exploration's full dcoord snapshot embedded while a job runs.
type ServiceStatus struct {
	Service     string                    `json:"service"` // always "dampi-queue"
	UptimeSec   float64                   `json:"uptime_sec"`
	Jobs        map[State]int             `json:"jobs"`
	Workers     []dcoord.PoolWorkerStatus `json:"workers"`
	TotalSlots  int                       `json:"total_slots"`
	CurrentJob  string                    `json:"current_job,omitempty"`
	Exploration *dcoord.Status            `json:"exploration,omitempty"`
}

// QueueHints is GET /queue: the queue plus the worker-autoscaling hints —
// enough for an operator (or an autoscaler) to decide whether the pool is
// keeping up.
type QueueHints struct {
	QueueDepth       int `json:"queue_depth"`
	JobsRunning      int `json:"jobs_running"`
	WorkersConnected int `json:"workers_connected"`
	TotalSlots       int `json:"total_slots"`
	// WindowPerSecond is the active exploration's trailing-window replay
	// rate (0 when idle).
	WindowPerSecond float64 `json:"window_per_second"`
	// RecentJobSeconds is the mean wall time of the last recentJobs done jobs
	// (the sliding window the ETA is computed from; 0 until a job finishes).
	RecentJobSeconds float64 `json:"recent_job_seconds"`
	// EtaSeconds estimates when the queue drains: (depth + running) × the
	// recent mean job time. 0 when unknown.
	EtaSeconds float64 `json:"eta_seconds"`
	// ScaleHint summarizes the capacity situation: "add-workers" (backlog
	// growing past a minute), "drain" (idle pool), "steady".
	ScaleHint string `json:"scale_hint"`
	Jobs      []*Job `json:"jobs"`
}

// API is the REST/JSON surface of the verification service.
type API struct {
	svc   *Service
	start time.Time
}

// NewAPI builds the HTTP handler: the job endpoints, the service status and
// metrics, and the embedded dashboard at /.
func NewAPI(svc *Service) http.Handler {
	a := &API{svc: svc, start: time.Now()}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", a.submit)
	mux.HandleFunc("GET /jobs", a.list)
	mux.HandleFunc("GET /jobs/{id}", a.get)
	mux.HandleFunc("GET /jobs/{id}/report", a.report)
	mux.HandleFunc("DELETE /jobs/{id}", a.cancel)
	mux.HandleFunc("GET /queue", a.queue)
	mux.HandleFunc("GET /status", a.status)
	mux.HandleFunc("GET /metrics", a.metrics)
	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write(dashboardHTML)
	})
	return mux
}

// writeJSON renders one JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders one JSON error.
func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (a *API) submit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad job spec: %v", err)
		return
	}
	job, dup, err := a.svc.Submit(req.JobSpec, time.Duration(req.TTLSec)*time.Second)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusCreated
	if dup {
		code = http.StatusOK
	}
	writeJSON(w, code, submitResponse{Job: job, Duplicate: dup})
}

func (a *API) list(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.svc.cfg.Store.List())
}

func (a *API) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.svc.cfg.Store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (a *API) report(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.svc.cfg.Store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	if !job.HasReport {
		writeError(w, http.StatusConflict, "job %s is %s; no report yet", id, job.State)
		return
	}
	rep, err := a.svc.cfg.Store.LoadReport(id)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(rep.Text()))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

func (a *API) cancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := a.svc.cfg.Store.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %s", id)
		return
	}
	if job.State.Terminal() {
		// Terminal job: DELETE removes the record and its artifacts.
		if err := a.svc.cfg.Store.Delete(id); err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
		return
	}
	if _, err := a.svc.Cancel(id); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	job, _ = a.svc.cfg.Store.Get(id)
	writeJSON(w, http.StatusOK, job)
}

// hints builds the QueueHints snapshot.
func (a *API) hints() QueueHints {
	counts := a.svc.cfg.Store.Counts()
	h := QueueHints{
		QueueDepth:  counts[Queued],
		JobsRunning: counts[Running] + counts[Merging],
		TotalSlots:  a.svc.cfg.Server.TotalSlots(),
		Jobs:        a.svc.cfg.Store.List(),
	}
	h.RecentJobSeconds = recentJobSeconds(h.Jobs)
	h.WorkersConnected = len(a.svc.cfg.Server.Workers())
	if st, _, ok := a.svc.cfg.Server.CurrentStatus(); ok {
		h.WindowPerSecond = st.WindowPerSec
	}
	if h.RecentJobSeconds > 0 {
		h.EtaSeconds = float64(h.QueueDepth+h.JobsRunning) * h.RecentJobSeconds
	}
	switch {
	case h.QueueDepth > 0 && h.EtaSeconds > 60:
		h.ScaleHint = "add-workers"
	case h.QueueDepth == 0 && h.JobsRunning == 0:
		h.ScaleHint = "drain"
	default:
		h.ScaleHint = "steady"
	}
	return h
}

// recentJobs is how many of the latest done jobs the ETA hint averages.
const recentJobs = 32

// recentJobSeconds is the mean of FinishedAt − StartedAt (the last attempt's
// wall time) over the recentJobs done jobs that finished last; 0 when none
// has. It reads the store, so the hint survives a restart.
func recentJobSeconds(jobs []*Job) float64 {
	var done []*Job
	for _, j := range jobs {
		if j.State == Done {
			done = append(done, j)
		}
	}
	if len(done) == 0 {
		return 0
	}
	sort.Slice(done, func(i, k int) bool { return done[i].FinishedAt.Before(done[k].FinishedAt) })
	done = done[max(0, len(done)-recentJobs):]
	sum := 0.0
	for _, j := range done {
		sum += j.FinishedAt.Sub(j.StartedAt).Seconds()
	}
	return sum / float64(len(done))
}

func (a *API) queue(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, a.hints())
}

func (a *API) status(w http.ResponseWriter, r *http.Request) {
	st := ServiceStatus{
		Service:    "dampi-queue",
		UptimeSec:  time.Since(a.start).Seconds(),
		Jobs:       a.svc.cfg.Store.Counts(),
		Workers:    a.svc.cfg.Server.Workers(),
		TotalSlots: a.svc.cfg.Server.TotalSlots(),
	}
	if est, id, ok := a.svc.cfg.Server.CurrentStatus(); ok {
		st.CurrentJob = id
		st.Exploration = &est
	}
	writeJSON(w, http.StatusOK, st)
}

func (a *API) metrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP dampi_up Whether the verification service is alive.\n# TYPE dampi_up gauge\ndampi_up 1\n")
	counts := a.svc.cfg.Store.Counts()
	fmt.Fprintf(&b, "# HELP dampi_queue_depth Jobs waiting for the cluster.\n# TYPE dampi_queue_depth gauge\ndampi_queue_depth %d\n", counts[Queued])
	fmt.Fprintf(&b, "# HELP dampi_jobs_total Jobs by lifecycle state.\n# TYPE dampi_jobs_total gauge\n")
	for _, st := range []State{Queued, Running, Merging, Done, Failed} {
		fmt.Fprintf(&b, "dampi_jobs_total{state=%q} %d\n", string(st), counts[st])
	}
	fmt.Fprintf(&b, "# HELP dampi_pool_workers Workers connected to the cluster pool.\n# TYPE dampi_pool_workers gauge\ndampi_pool_workers %d\n", len(a.svc.cfg.Server.Workers()))
	fmt.Fprintf(&b, "# HELP dampi_pool_slots Total concurrent replay slots across the pool.\n# TYPE dampi_pool_slots gauge\ndampi_pool_slots %d\n", a.svc.cfg.Server.TotalSlots())
	walSyncs, fileSyncs := a.svc.cfg.Store.Syncs()
	fmt.Fprintf(&b, "# HELP dampi_store_syncs_total Fsyncs the job store has issued: of its WAL, and of the files beside it (reports, snapshots, a drained job's checkpoint) and their directory.\n# TYPE dampi_store_syncs_total counter\ndampi_store_syncs_total{kind=\"wal\"} %d\ndampi_store_syncs_total{kind=\"file\"} %d\n", walSyncs, fileSyncs)
	// The sampling counters are cumulative over every job: the finished jobs'
	// sums from the store, plus the live job's merged counts while one runs
	// (its own store record is left out, so it is never counted twice).
	est, cur, live := a.svc.cfg.Server.CurrentStatus()
	var sampled, distinct int
	for _, j := range a.svc.cfg.Store.List() {
		if j.ID != cur {
			sampled += j.Sampled
			distinct += j.SampledDistinct
		}
	}
	if live {
		est.Sampled += sampled
		est.SampledDistinct += distinct
		dcoord.WriteMetrics(&b, est)
	} else {
		// No live exploration: the same names the live dcoord metrics carry,
		// so each scrape carries each name once.
		fmt.Fprintf(&b, "# HELP dampi_checkpoints_written_total Frontier checkpoint files written, two fsyncs each (the file and its directory).\n# TYPE dampi_checkpoints_written_total counter\ndampi_checkpoints_written_total %d\n", a.svc.cfg.Server.CheckpointsWritten())
		fmt.Fprintf(&b, "# HELP dampi_sampled_schedules_total Walk-step schedules merged in sampling mode.\n# TYPE dampi_sampled_schedules_total counter\ndampi_sampled_schedules_total %d\n", sampled)
		fmt.Fprintf(&b, "# HELP dampi_sample_duplicates_total Sampled schedules whose decision vector was already sampled.\n# TYPE dampi_sample_duplicates_total counter\ndampi_sample_duplicates_total %d\n", sampled-distinct)
	}
	_, _ = w.Write([]byte(b.String()))
}
