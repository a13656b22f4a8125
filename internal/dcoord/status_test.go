package dcoord

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"dampi/internal/core"
)

// TestStatusEndpointJSON: /status serves the live snapshot with the fields
// dashboards depend on, including per-worker lease state.
func TestStatusEndpointJSON(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "observer", 2)
	defer f.close()
	f.recvTask() // hold the root lease so active_leases is visible

	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	if st.State != "exploring" {
		t.Errorf("state = %q, want exploring", st.State)
	}
	if st.Workload != "lease-test" || st.Procs != 3 {
		t.Errorf("identity fields wrong: %+v", st)
	}
	if st.ActiveLeases != 1 {
		t.Errorf("active_leases = %d, want 1 (root held by fake worker)", st.ActiveLeases)
	}
	if len(st.Workers) != 1 || st.Workers[0].Name != "observer" || st.Workers[0].Slots != 2 {
		t.Errorf("workers = %+v, want one 2-slot observer", st.Workers)
	}
	if st.Workers[0].ActiveLeases != 1 {
		t.Errorf("worker active_leases = %d, want 1", st.Workers[0].ActiveLeases)
	}
}

// TestMetricsEndpoint: /metrics serves Prometheus text exposition with the
// advertised metric names and per-worker labels.
func TestMetricsEndpoint(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)
	defer c.Stop()

	f := dialFake(t, addr, cfg.Fingerprint, "scraped", 1)
	defer f.close()
	f.recvTask()

	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"dampi_up 1",
		"dampi_interleavings_total 0",
		"dampi_interleavings_per_second",
		"dampi_frontier_depth",
		"dampi_active_leases 1",
		"dampi_requeues_total 0",
		"dampi_errors_total 0",
		"dampi_deadlocks_total 0",
		"dampi_workers_connected 1",
		`dampi_worker_lease_age_seconds{worker="scraped"}`,
		`dampi_worker_completed_total{worker="scraped"} 0`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n--- body ---\n%s", want, body)
		}
	}
}

// statusGoldenFields is the /status wire contract: every key a scrape must
// always find, whatever the exploration state. The jobqueue dashboard and
// external monitors read these names — a rename is a breaking change and must
// fail here first.
var statusGoldenFields = []string{
	"state", "workload", "procs", "elapsed_sec", "interleavings", "errors",
	"deadlocks", "decision_points", "frontier_depth", "active_leases",
	"leases_granted", "done_set_size", "requeues", "per_second_mean", "per_second_window",
	"frames_in", "frames_out", "wire_bytes_in", "wire_bytes_out",
	"checkpoints_written", "workers",
}

// workerGoldenFields is the contract of each entry in "workers".
var workerGoldenFields = []string{
	"name", "addr", "slots", "active_leases", "completed", "connected_sec",
	"oldest_lease_sec",
}

// TestStatusGoldenFieldSet pins the exact JSON key sets of /status.
func TestStatusGoldenFieldSet(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)
	defer c.Stop()
	f := dialFake(t, addr, cfg.Fingerprint, "golden", 1)
	defer f.close()
	f.recvTask()

	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()
	// One hello in; a welcome, the job announcement and the root task frame
	// out. A frame is counted once its write has returned, which the fake's
	// read of it can beat.
	var body []byte
	var st Status
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := srv.Client().Get(srv.URL + "/status")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/status is not a JSON object: %v\n%s", err, body)
		}
		if st.FramesOut >= 3 || time.Now().After(deadline) {
			break
		}
	}

	var raw map[string]json.RawMessage
	if err := json.Unmarshal(body, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range statusGoldenFields {
		if _, ok := raw[field]; !ok {
			t.Errorf("/status is missing %q", field)
		}
	}
	// Every frame is at least its 4-byte header and a JSON object.
	if st.FramesIn != 1 || st.FramesOut != 3 || st.WireBytesIn < 6 || st.WireBytesOut < 18 {
		t.Errorf("wire counters = %d frames / %d bytes in, %d / %d out; want 1 frame in, 3 out",
			st.FramesIn, st.WireBytesIn, st.FramesOut, st.WireBytesOut)
	}
	// The root is leased, so nothing waits in the frontier and nothing is done.
	if st.LeasesGranted != 1 || st.ActiveLeases != 1 || st.FrontierDepth != 0 || st.DoneSet != 0 {
		t.Errorf("leases granted/active = %d/%d, frontier %d, done-set %d; want 1/1, 0, 0",
			st.LeasesGranted, st.ActiveLeases, st.FrontierDepth, st.DoneSet)
	}
	var workers []map[string]json.RawMessage
	if err := json.Unmarshal(raw["workers"], &workers); err != nil || len(workers) != 1 {
		t.Fatalf("workers = %s (err %v), want one entry", raw["workers"], err)
	}
	for _, field := range workerGoldenFields {
		if _, ok := workers[0][field]; !ok {
			t.Errorf("worker entry is missing %q", field)
		}
	}
}

// promSample matches one Prometheus text-exposition sample line.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$`)

// TestMetricsExpositionParses: every /metrics line is either a well-formed
// comment or a sample the Prometheus text format accepts, and every sample is
// preceded by its # TYPE declaration.
func TestMetricsExpositionParses(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)
	defer c.Stop()
	f := dialFake(t, addr, cfg.Fingerprint, "parsed", 1)
	defer f.close()
	f.recvTask()
	// A frame is counted once its write has returned, which the read of it
	// above can beat.
	waitStatus(t, c, "the task frame's count", func(st Status) bool { return st.FramesOut >= 3 })

	srv := httptest.NewServer(c.StatusHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain", ct)
	}

	typed := make(map[string]bool)
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		switch {
		case line == "":
		case strings.HasPrefix(line, "# TYPE "):
			parts := strings.Fields(line)
			if len(parts) != 4 || (parts[3] != "gauge" && parts[3] != "counter") {
				t.Errorf("bad TYPE comment %q", line)
				continue
			}
			typed[parts[2]] = true
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "#"):
			t.Errorf("unknown comment form %q", line)
		default:
			if !promSample.MatchString(line) {
				t.Errorf("bad exposition sample %q", line)
				continue
			}
			samples++
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			if !typed[name] {
				t.Errorf("sample %q has no preceding # TYPE", name)
			}
		}
	}
	if samples < 10 {
		t.Errorf("only %d samples; the exposition looks truncated:\n%s", samples, raw)
	}
	for _, want := range []string{
		`dampi_wire_frames_total{dir="in"} 1`, `dampi_wire_frames_total{dir="out"} 3`,
		`dampi_wire_bytes_total{dir="in"} `, `dampi_wire_bytes_total{dir="out"} `,
		`dampi_leases_total 1`, `dampi_frontier_depth 0`, `dampi_checkpoints_written_total 0`,
	} {
		if !strings.Contains(string(raw), "\n"+want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestStatusStateTransitions: the state field tracks the coordinator's
// lifecycle from exploring through done.
func TestStatusStateTransitions(t *testing.T) {
	cfg := leaseTestConfig(time.Second)
	c, addr := startCoordinator(t, cfg)

	if st := c.Status(); st.State != "exploring" {
		t.Errorf("initial state = %q, want exploring", st.State)
	}

	// Complete the root with no children: the exploration finishes.
	f := dialFake(t, addr, cfg.Fingerprint, "oneshot", 1)
	defer f.close()
	f.result(cfg.Fingerprint, f.recvTask(), &core.Report{Interleavings: 1})
	if _, err := waitFor(t, c); err != nil {
		t.Fatalf("explore: %v", err)
	}
	if st := c.Status(); st.State != "done" {
		t.Errorf("final state = %q, want done", st.State)
	}
}
