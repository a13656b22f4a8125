package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// manifest is BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestManifestMatchesTables keeps BENCHMARK.json and the tables in
// metrics.go in step: same names, units, directions and bounds, each name
// used once and well-formed.
func TestManifestMatchesTables(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	body, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	seen := map[string]bool{}
	declare := func(name, unit string) {
		t.Helper()
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is not of the form %v", name, nameRE)
		}
		if unit != "" && !unitRE.MatchString(unit) {
			t.Errorf("unit %q of %s is not of the form %v", unit, name, unitRE)
		}
	}

	if len(m.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(m.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		declare(w.Name, "")
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the table %+v", i, m.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, at most 200", w.Name, len(w.Why))
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		declare(d.Name, d.Unit)
		if g := m.EndToEnd[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the table %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		declare(d.Name, d.Unit)
		if g := m.PerLayer[i]; g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the table %+v", i, g, d)
		}
	}
}

// reportsExactly asserts that a result carries each declared metric once
// and nothing else, and that every verdict in it was right.
func reportsExactly(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	for _, d := range defs {
		if _, ok := res.Metrics[d.Name]; !ok {
			t.Errorf("%s: metric %s missing", res.Workload, d.Name)
		}
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d declared", res.Workload, len(res.Metrics), len(defs))
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s: %d of %d verifications failed: %v", res.Workload, res.Failed, res.Attempted, res.Why)
	}
}

// TestSmoke runs every workload's timed pass and the traced pass at a
// hundredth of their size. It checks names and verdicts, never a time.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped under -short")
	}
	const size = 0.01
	h, err := newHarness(1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.cleanup()

	// The battery is the same for every workload: run it once and pair it
	// with each workload's own traced metrics.
	battery := &result{Workload: "battery", Metrics: map[string]dist{}}
	if err := layerBattery(h, battery, size, newTracer()); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloadsTable() {
		timed, err := runTimed(h, w, 0, size)
		if err != nil {
			t.Fatal(err)
		}
		reportsExactly(t, timed, endToEnd)

		traced := &result{Workload: w.Name, Trace: true, Attempted: battery.Attempted, Failed: battery.Failed, Why: battery.Why, Metrics: map[string]dist{}}
		for name, d := range battery.Metrics {
			traced.Metrics[name] = d
		}
		e, _, err := setUp(h, w, size)
		if err != nil {
			t.Fatal(err)
		}
		err = workloadTrace(w, e, traced, newTracer(), size, func(pairs int) bool { return pairs < 1 })
		if e != nil {
			e.close()
		}
		if err != nil {
			t.Fatal(err)
		}
		reportsExactly(t, traced, perLayer)
	}
}
