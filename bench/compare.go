package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// ledger is a result file: the host shape and one result per workload and
// pass. `-workload all` writes all six into one file.
type ledger struct {
	Host    hostShape `json:"host"`
	Seed    uint64    `json:"seed"`
	Seconds float64   `json:"seconds"`
	Results []*result `json:"results"`
}

func readLedger(path string) (*ledger, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(body, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &l, nil
}

func (l *ledger) write(path string) error {
	body, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func (l *ledger) timed(workload string) *result {
	for _, r := range l.Results {
		if r.Workload == workload && !r.Trace {
			return r
		}
	}
	return nil
}

// verdicts of one metric on one workload, B against A.
const (
	cmpOK         = "ok"
	cmpBetter     = "better"
	cmpRegressed  = "REGRESSED"
	cmpUnresolved = "unresolved"
)

// judge applies a metric's bound: B's median may be worse than A's by at
// most bound × A. When the spread between A's own repetitions is wider than
// the bound, a difference inside it proves nothing either way: the metric is
// unresolved, not unchanged.
func judge(def metricDef, a, b dist) (string, float64) {
	if a.Value == 0 {
		return cmpUnresolved, 0
	}
	worse := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.spread() > def.Bound:
		return cmpUnresolved, worse
	case worse > def.Bound:
		return cmpRegressed, worse
	case worse < -def.Bound:
		return cmpBetter, worse
	}
	return cmpOK, worse
}

// compare prints one row per workload with every end-to-end metric's change
// from A to B, and reports whether any metric regressed or any count
// differs. Files measured at different W are refused: the engines' rates
// are not comparable across worker counts.
func compare(out io.Writer, pathA, pathB string) (clean bool, err error) {
	a, err := readLedger(pathA)
	if err != nil {
		return false, err
	}
	b, err := readLedger(pathB)
	if err != nil {
		return false, err
	}
	if a.Host.Workers != b.Host.Workers {
		return false, fmt.Errorf("refusing to compare: %s ran with W=%d (%d CPUs), %s with W=%d (%d CPUs)",
			pathA, a.Host.Workers, a.Host.NProc, pathB, b.Host.Workers, b.Host.NProc)
	}
	fmt.Fprintf(out, "A: %s  (%s, %s, nproc=%d GOMAXPROCS=%d W=%d)\n", pathA, a.Host.CPUModel, a.Host.GoVersion, a.Host.NProc, a.Host.GOMAXPROCS, a.Host.Workers)
	fmt.Fprintf(out, "B: %s  (%s, %s, nproc=%d GOMAXPROCS=%d W=%d)\n", pathB, b.Host.CPUModel, b.Host.GoVersion, b.Host.NProc, b.Host.GOMAXPROCS, b.Host.Workers)
	fmt.Fprintln(out, "change is B over A, positive = worse; bound in brackets")

	clean = true
	for _, wd := range workloadDefs {
		ra, rb := a.timed(wd.Name), b.timed(wd.Name)
		if ra == nil || rb == nil {
			continue
		}
		var cells []string
		for _, def := range endToEnd {
			verdict, worse := judge(def, ra.Metrics[def.Name], rb.Metrics[def.Name])
			if verdict == cmpRegressed {
				clean = false
			}
			cells = append(cells, fmt.Sprintf("%s %+.1f%% [%.0f%%] %s", def.Name, 100*worse, 100*def.Bound, verdict))
		}
		failed := fmt.Sprintf("failed %d/%d -> %d/%d", ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		if rb.Failed > ra.Failed {
			clean = false
			failed += " " + cmpRegressed
		}
		fmt.Fprintf(out, "%-18s %s | %s\n", wd.Name, strings.Join(cells, " | "), failed)
	}
	return clean, nil
}
