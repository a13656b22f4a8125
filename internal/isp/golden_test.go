package isp_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dampi/internal/core"
	"dampi/internal/isp"
	"dampi/mpi"
	"dampi/workloads/matmul"
	"dampi/workloads/parmetis"
)

// goldenPath holds what ISP's own frame-stack explorer reported for each
// golden case, recorded before ISP's runs moved onto core's depth-first
// search. The two searches must agree on every count, flag and error.
var goldenPath = filepath.Join("testdata", "isp_parent.json")

// goldenRow is one case's result: the counters, the cap flag, and each
// failing interleaving's index and message.
type goldenRow struct {
	Name          string        `json:"name"`
	Interleavings int           `json:"interleavings"`
	Deadlocks     int           `json:"deadlocks"`
	Capped        bool          `json:"capped"`
	Errors        []goldenError `json:"errors,omitempty"`
}

type goldenError struct {
	Index   int    `json:"index"`
	Message string `json:"message"`
}

// goldenCase is one ISP exploration the golden pins.
type goldenCase struct {
	name string
	cfg  isp.Config
}

// goldenCases covers the tests' programs, the deadlock paths, the cap and
// the stop rule, the workloads Figs. 5 and 6 run, and the cross-check's
// seeded fan-in trials.
func goldenCases() []goldenCase {
	cases := []goldenCase{
		{"fig3", isp.Config{Procs: 3, Program: isp.Fig3Program}},
		{"fanin-4x1", isp.Config{Procs: 4, Program: isp.FanInProgram(4, 1)}},
		{"fanin-4x2-cap4", isp.Config{Procs: 4, Program: isp.FanInProgram(4, 2), MaxInterleavings: 4}},
		{"fanin-4x2", isp.Config{Procs: 4, Program: isp.FanInProgram(4, 2)}},
		{"arrival-order-4x2", isp.Config{Procs: 4, Program: arrivalOrderProgram}},
		{"arrival-order-4x2-cap10", isp.Config{Procs: 4, Program: arrivalOrderProgram, MaxInterleavings: 10}},
		{"arrival-order-4x2-stop-cap1", isp.Config{Procs: 4, Program: arrivalOrderProgram, MaxInterleavings: 1, StopOnFirstError: true}},
		{"wildcard-probe", isp.Config{Procs: 3, Program: wildcardProbeProgram}},
		{"waitany", isp.Config{Procs: 3, Program: waitanyProgram}},
		{"starvation", isp.Config{Procs: 2, Program: starvationProgram}},
		{"wrong-tag", isp.Config{Procs: 2, Program: wrongTagProgram}},
		{"fig3-stop-on-first-error", isp.Config{Procs: 3, Program: isp.Fig3Program, StopOnFirstError: true}},
		{"matmul-p4-cap250", isp.Config{Procs: 4, Program: matmul.Program(matmul.Config{}), MaxInterleavings: 250}},
		{"parmetis-p4-cap1", isp.Config{Procs: 4, Program: parmetis.Program(parmetis.Config{Scale: 100}), MaxInterleavings: 1}},
	}
	// The cross-check's trials, drawn from its seed in its order.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		procs := 4 + rng.Intn(2)
		prog, _ := randomFanIn(rng, procs)
		cases = append(cases, goldenCase{fmt.Sprintf("randomfanin-%d", trial), isp.Config{Procs: procs, Program: prog}})
	}
	return cases
}

// summarize reduces a report to its golden row.
func summarize(name string, rep *core.Report) goldenRow {
	row := goldenRow{Name: name, Interleavings: rep.Interleavings, Deadlocks: rep.Deadlocks, Capped: rep.Capped}
	for _, e := range rep.Errors {
		row.Errors = append(row.Errors, goldenError{Index: e.Index, Message: e.Err.Error()})
	}
	return row
}

// stopsAtTheCap names the golden rows where StopOnFirstError fires on the
// cap-th replay with work left. The frame stack returned there without
// setting Capped; core's rule reports the work left as Capped, so these rows
// hold capped: true where the recording said false. Every other field is the
// recording's.
var stopsAtTheCap = map[string]bool{"arrival-order-4x2-stop-cap1": true}

// TestISPMatchesParentGolden: driven by core's search through the Runner
// seam, ISP explores exactly what its own frame stack did — the same counts,
// deadlocks, cap flag and failing interleavings, at the same indexes, in the
// same order (arrival-order-* fail on every interleaving with its matches).
func TestISPMatchesParentGolden(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows []goldenRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	want := make(map[string]goldenRow, len(rows))
	for _, r := range rows {
		want[r.Name] = r
	}
	cases := goldenCases()
	if len(cases) != len(want) {
		t.Fatalf("%d cases, %d golden rows", len(cases), len(want))
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if stopsAtTheCap[c.name] && !want[c.name].Capped {
				t.Fatalf("golden row %s must carry core's Capped", c.name)
			}
			rep, err := isp.NewExplorer(c.cfg).Explore()
			if err != nil {
				t.Fatal(err)
			}
			if got := summarize(c.name, rep); !reflect.DeepEqual(got, want[c.name]) {
				t.Errorf("got  %+v\nwant %+v", got, want[c.name])
			}
		})
	}
}

// arrivalOrderProgram is fanInProgram(4, 2) failing on every interleaving
// with the order rank 0's wildcards matched in, so the golden's error list
// pins the order the search visits the interleavings in, not only how many.
func arrivalOrderProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	var order []int
	for r := 0; r < 2; r++ {
		if p.Rank() == 0 {
			for i := 1; i < p.Size(); i++ {
				_, st, err := p.Recv(mpi.AnySource, r, c)
				if err != nil {
					return err
				}
				order = append(order, st.Source)
			}
		} else if err := p.Send(0, r, nil, c); err != nil {
			return err
		}
		if err := p.Barrier(c); err != nil {
			return err
		}
	}
	if p.Rank() == 0 {
		return fmt.Errorf("arrival order %v", order)
	}
	return nil
}

// The inline programs of isp_test.go's tests.

func wildcardProbeProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() == 0 {
		for i := 0; i < 2; i++ {
			st, err := p.Probe(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
			if _, _, err := p.Recv(st.Source, st.Tag, c); err != nil {
				return err
			}
		}
		return nil
	}
	return p.Send(0, 0, mpi.EncodeInt64(int64(p.Rank())), c)
}

func waitanyProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() == 0 {
		reqs := make([]*mpi.Request, 2)
		var err error
		for i := range reqs {
			reqs[i], err = p.Irecv(mpi.AnySource, 0, c)
			if err != nil {
				return err
			}
		}
		for range reqs {
			if _, _, err := p.Waitany(reqs); err != nil {
				return err
			}
		}
		return nil
	}
	return p.Send(0, 0, nil, c)
}

func starvationProgram(p *mpi.Proc) error {
	if p.Rank() == 0 {
		_, _, err := p.Recv(mpi.AnySource, 0, p.CommWorld())
		return err
	}
	return nil
}

func wrongTagProgram(p *mpi.Proc) error {
	c := p.CommWorld()
	if p.Rank() == 0 {
		return p.Send(1, 1, nil, c)
	}
	_, _, err := p.Recv(0, 2, c)
	return err
}
