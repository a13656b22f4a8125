package jobqueue

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// apiHarness is an API over a live store but an idle job loop: submitted jobs
// stay queued, so handler behavior is deterministic.
type apiHarness struct {
	svc   *Service
	store *Store
	srv   *httptest.Server
}

func startAPIHarness(t *testing.T) *apiHarness {
	t.Helper()
	store, err := OpenStore(StoreConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	server := dcoord.NewServer(dcoord.ServerConfig{})
	svc, err := NewService(ServiceConfig{Store: store, Server: server})
	if err != nil {
		t.Fatal(err)
	}
	h := &apiHarness{svc: svc, store: store, srv: httptest.NewServer(NewAPI(svc))}
	t.Cleanup(func() {
		h.srv.Close()
		server.Close()
		store.Close()
	})
	return h
}

// doJSON performs one request, decoding the response body into out (when
// non-nil) and returning the status code.
func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, raw, err)
		}
	}
	return resp.StatusCode
}

const faninBody = `{"workload":"fanin","procs":3,"clock":0,"transport":0,"mixing_bound":1}`

func TestAPISubmitGetList(t *testing.T) {
	h := startAPIHarness(t)
	var sub submitResponse
	if code := doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, &sub); code != http.StatusCreated {
		t.Fatalf("submit = %d, want 201", code)
	}
	if sub.Job == nil || sub.Job.State != Queued || sub.Duplicate {
		t.Fatalf("submit response = %+v", sub)
	}
	id := sub.Job.ID

	// The same spec again: the active job is returned, not a second one.
	var dup submitResponse
	if code := doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, &dup); code != http.StatusOK {
		t.Errorf("duplicate submit = %d, want 200", code)
	}
	if !dup.Duplicate || dup.Job.ID != id {
		t.Errorf("duplicate response = %+v, want duplicate of %s", dup, id)
	}

	var job Job
	if code := doJSON(t, "GET", h.srv.URL+"/jobs/"+id, "", &job); code != http.StatusOK {
		t.Errorf("get = %d, want 200", code)
	}
	if job.ID != id || job.Spec.Workload != "fanin" {
		t.Errorf("got job %+v", job)
	}
	var list []*Job
	if code := doJSON(t, "GET", h.srv.URL+"/jobs", "", &list); code != http.StatusOK || len(list) != 1 {
		t.Errorf("list = %d with %d jobs, want 200 with 1", code, len(list))
	}
	if code := doJSON(t, "GET", h.srv.URL+"/jobs/j999999", "", nil); code != http.StatusNotFound {
		t.Errorf("get missing = %d, want 404", code)
	}
}

func TestAPISubmitRejectsBadSpecs(t *testing.T) {
	h := startAPIHarness(t)
	cases := []struct {
		name, body string
	}{
		{"not json", "{"},
		{"unknown field", `{"workload":"fanin","procs":3,"bogus":1}`},
		{"workload", `{"procs":3}`},
		{"procs", `{"workload":"fanin","procs":0}`},
		// A spec is outside input: {"clock":7} used to run as Lamport under a
		// dedup key of its own. Each refusal names the field.
		{"clock", `{"workload":"fanin","procs":3,"clock":7}`},
		{"transport", `{"workload":"fanin","procs":3,"transport":2}`},
		{"mixing_bound", `{"workload":"fanin","procs":3,"mixing_bound":-2}`},
		{"auto_loop_threshold", `{"workload":"fanin","procs":3,"auto_loop_threshold":-1}`},
		{"samples", `{"workload":"fanin","procs":3,"sample_strategy":"random","samples":-1}`},
		{"sample_depth", `{"workload":"fanin","procs":3,"sample_depth":-1}`},
		{"strategy", `{"workload":"fanin","procs":3,"sample_strategy":"quantum"}`},
		{"max_interleavings", `{"workload":"fanin","procs":3,"max_interleavings":-1}`},
		{"scale", `{"workload":"fanin","procs":3,"scale":-1}`},
		{"iters", `{"workload":"fanin","procs":3,"iters":-1}`},
	}
	for i, tc := range cases {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, "POST", h.srv.URL+"/jobs", tc.body, &e); code != http.StatusBadRequest {
			t.Errorf("%s: code = %d, want 400", tc.name, code)
		}
		if e.Error == "" || (i >= 2 && !strings.Contains(e.Error, tc.name)) {
			t.Errorf("%s: error message %q does not name it", tc.name, e.Error)
		}
	}
	if jobs := h.store.List(); len(jobs) != 0 {
		t.Errorf("%d refused specs were queued", len(jobs))
	}
}

func TestAPIReportLifecycle(t *testing.T) {
	h := startAPIHarness(t)
	var sub submitResponse
	doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, &sub)
	id := sub.Job.ID

	// Queued job: the report does not exist yet.
	if code := doJSON(t, "GET", h.srv.URL+"/jobs/"+id+"/report", "", nil); code != http.StatusConflict {
		t.Errorf("report before done = %d, want 409", code)
	}

	// Walk the job to done with a persisted report, as the service would.
	for _, st := range []State{Running, Merging} {
		if _, err := h.store.SetState(id, st, ""); err != nil {
			t.Fatal(err)
		}
	}
	rep := &JobReport{Workload: "fanin", Procs: 3, Interleavings: 2, WildcardsAnalyzed: 1,
		Errors: []*core.InterleavingResult{{Err: errors.New("fan-in: rank 2 arrived first"), Decisions: &core.Decisions{}}}}
	if err := h.store.SaveReport(id, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := h.store.Finish(id, rep); err != nil {
		t.Fatal(err)
	}

	var got JobReport
	if code := doJSON(t, "GET", h.srv.URL+"/jobs/"+id+"/report", "", &got); code != http.StatusOK {
		t.Fatalf("report = %d, want 200", code)
	}
	if got.Interleavings != 2 || len(got.Errors) != 1 {
		t.Errorf("report = %+v", got)
	}

	resp, err := http.Get(h.srv.URL + "/jobs/" + id + "/report?format=text")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := rep.Text(); string(text) != want {
		t.Errorf("text report = %q, want %q", text, want)
	}
	if !strings.HasPrefix(string(text), "DAMPI: interleavings=2 errors=1") {
		t.Errorf("text report does not render the CLI summary: %q", text)
	}
}

func TestAPIDeleteCancelsThenRemoves(t *testing.T) {
	h := startAPIHarness(t)
	var sub submitResponse
	doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, &sub)
	id := sub.Job.ID

	// DELETE on a queued job cancels it (terminal, no report)...
	var job Job
	if code := doJSON(t, "DELETE", h.srv.URL+"/jobs/"+id, "", &job); code != http.StatusOK {
		t.Fatalf("cancel = %d, want 200", code)
	}
	if got, _ := h.store.Get(id); got.State != Failed || got.Error != "canceled" {
		t.Errorf("canceled job = %+v", got)
	}
	// ...and DELETE on the now-terminal job removes the record.
	if code := doJSON(t, "DELETE", h.srv.URL+"/jobs/"+id, "", nil); code != http.StatusOK {
		t.Errorf("delete = %d, want 200", code)
	}
	if code := doJSON(t, "GET", h.srv.URL+"/jobs/"+id, "", nil); code != http.StatusNotFound {
		t.Errorf("get after delete = %d, want 404", code)
	}
}

func TestAPIQueueHints(t *testing.T) {
	h := startAPIHarness(t)
	var hints QueueHints
	doJSON(t, "GET", h.srv.URL+"/queue", "", &hints)
	if hints.QueueDepth != 0 || hints.ScaleHint != "drain" {
		t.Errorf("idle hints = %+v, want depth 0 / drain", hints)
	}

	doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, nil)
	doJSON(t, "POST", h.srv.URL+"/jobs", `{"workload":"fanin","procs":4,"clock":0,"transport":0,"mixing_bound":1}`, nil)
	doJSON(t, "GET", h.srv.URL+"/queue", "", &hints)
	if hints.QueueDepth != 2 || len(hints.Jobs) != 2 {
		t.Errorf("hints = %+v, want depth 2 with 2 jobs", hints)
	}
	if hints.ScaleHint != "steady" {
		t.Errorf("scale hint with no job history = %q, want steady", hints.ScaleHint)
	}

	// With a 2-minute recent mean, a 2-deep backlog is a >60s ETA: the
	// autoscaling hint flips to add-workers. The mean is read from the store:
	// two done jobs that ran 1 and 3 minutes by its clock.
	clock := time.Now()
	h.store.now = func() time.Time { return clock }
	for i, ran := range []time.Duration{time.Minute, 3 * time.Minute} {
		rep := &JobReport{Workload: "fanin", Procs: 5 + i}
		j, _, err := h.store.Submit(dcoord.JobSpec{Workload: "fanin", Procs: 5 + i}, 0)
		if err == nil {
			_, err = h.store.SetState(j.ID, Running, "")
		}
		clock = clock.Add(ran)
		if err == nil {
			_, err = h.store.SetState(j.ID, Merging, "")
		}
		if err == nil {
			err = h.store.SaveReport(j.ID, rep)
		}
		if err == nil {
			_, err = h.store.Finish(j.ID, rep)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	doJSON(t, "GET", h.srv.URL+"/queue", "", &hints)
	if hints.RecentJobSeconds != 120 || hints.EtaSeconds != 240 {
		t.Errorf("hints = %+v, want recent 120s eta 240s", hints)
	}
	if hints.ScaleHint != "add-workers" {
		t.Errorf("scale hint = %q, want add-workers", hints.ScaleHint)
	}
}

func TestAPIStatusFields(t *testing.T) {
	h := startAPIHarness(t)
	doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, nil)
	var raw map[string]json.RawMessage
	doJSON(t, "GET", h.srv.URL+"/status", "", &raw)
	for _, field := range []string{"service", "uptime_sec", "jobs", "workers", "total_slots"} {
		if _, ok := raw[field]; !ok {
			t.Errorf("/status is missing %q: %v", field, raw)
		}
	}
	var st ServiceStatus
	doJSON(t, "GET", h.srv.URL+"/status", "", &st)
	if st.Service != "dampi-queue" {
		t.Errorf("service = %q", st.Service)
	}
	if st.Jobs[Queued] != 1 {
		t.Errorf("jobs = %v, want 1 queued", st.Jobs)
	}
}

// promLine matches one Prometheus text-exposition sample.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$`)

// checkExposition validates every sample line parses and returns the set of
// metric names seen.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Errorf("bad exposition line %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		seen[name] = true
	}
	return seen
}

func TestAPIMetricsExposition(t *testing.T) {
	h := startAPIHarness(t)
	doJSON(t, "POST", h.srv.URL+"/jobs", faninBody, nil)
	doJSON(t, "POST", h.srv.URL+"/jobs", `{"workload":"fanin","procs":4,"clock":0,"transport":0,"mixing_bound":1}`, nil)

	resp, err := http.Get(h.srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	body := string(raw)
	seen := checkExposition(t, body)
	for _, m := range []string{"dampi_up", "dampi_queue_depth", "dampi_jobs_total", "dampi_pool_workers", "dampi_pool_slots",
		"dampi_store_syncs_total", "dampi_checkpoints_written_total"} {
		if !seen[m] {
			t.Errorf("/metrics is missing %s", m)
		}
	}
	if !strings.Contains(body, "dampi_queue_depth 2") {
		t.Errorf("queue depth gauge wrong:\n%s", body)
	}
	if !strings.Contains(body, `dampi_jobs_total{state="queued"} 2`) {
		t.Errorf("jobs-by-state gauge wrong:\n%s", body)
	}
	// Opening the store cut its (empty) journal, and each submission is one
	// more WAL fsync; nothing has run, so no file and no checkpoint.
	for _, want := range []string{`dampi_store_syncs_total{kind="wal"} 3`, `dampi_store_syncs_total{kind="file"} 0`, `dampi_checkpoints_written_total 0`} {
		if !strings.Contains(body, "\n"+want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, body)
		}
	}
	// Every state's series exists even at zero, so dashboards never lose them.
	for _, st := range []State{Running, Merging, Done, Failed} {
		if !strings.Contains(body, `dampi_jobs_total{state="`+string(st)+`"} 0`) {
			t.Errorf("missing zero series for state %s:\n%s", st, body)
		}
	}
}

func TestAPIDashboard(t *testing.T) {
	h := startAPIHarness(t)
	resp, err := http.Get(h.srv.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dashboard = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("content type = %q", ct)
	}
	body := strings.ToLower(string(raw))
	if !strings.Contains(body, "<html") || !strings.Contains(body, "/queue") {
		t.Error("dashboard page does not look like the embedded dashboard")
	}
}

// TestAPIStatusDuringJob exercises the handlers against a live run: while a
// job is active, /status and /metrics embed the exploration snapshot.
func TestAPIStatusDuringJob(t *testing.T) {
	f := newTestFactory()
	h := startHarness(t, t.TempDir(), f, 1, 1, 0)
	defer h.api.Close()
	defer h.stopWorkers()

	j, _, err := h.svc.Submit(dcoord.JobSpec{Workload: "slowfanin", Procs: 5, Space: dexplore.Space{MixingBound: core.Unbounded}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitRunningProgress(t, h, j.ID, 1)

	var st ServiceStatus
	doJSON(t, "GET", h.api.URL+"/status", "", &st)
	if st.CurrentJob != j.ID || st.Exploration == nil {
		t.Errorf("status during job = current %q exploration %v", st.CurrentJob, st.Exploration != nil)
	}
	resp, err := http.Get(h.api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	seen := checkExposition(t, string(raw))
	for _, m := range []string{"dampi_interleavings_total", "dampi_frontier_depth", "dampi_done_set_size", "dampi_active_leases"} {
		if !seen[m] {
			t.Errorf("/metrics during a job is missing %s", m)
		}
	}

	waitJobTerminal(t, h.store, j.ID)
	h.svc.Stop()
	<-h.runDone
}
