package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestTraceRoundTrip(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 4, Program: fanInProgram(4, 2)})
	trace, _, err := ex.rc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Epochs) != len(trace.Epochs) {
		t.Fatalf("epochs %d -> %d", len(trace.Epochs), len(got.Epochs))
	}
	for i := range got.Epochs {
		if !reflect.DeepEqual(got.Epochs[i], trace.Epochs[i]) {
			t.Errorf("epoch %d differs: %v vs %v", i, got.Epochs[i], trace.Epochs[i])
		}
	}
	if got.MaxLC != trace.MaxLC {
		t.Errorf("MaxLC %d -> %d", trace.MaxLC, got.MaxLC)
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program})
	trace, _, err := ex.rc.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "potential_matches.json")
	if err := trace.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary() != trace.Summary() {
		t.Fatalf("summary changed: %s vs %s", got.Summary(), trace.Summary())
	}
}

func TestDecisionsFromTraceReplays(t *testing.T) {
	// A saved trace must be replayable: DecisionsFromTrace reproduces the
	// run it was taken from, including the error outcome.
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program})
	for attempt := 0; attempt < 50; attempt++ {
		trace, res, err := ex.rc.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		d := DecisionsFromTrace(trace)
		_, replay, err := Replay(ExplorerConfig{Procs: 3, Program: fig3Program}, d)
		if err != nil {
			t.Fatal(err)
		}
		if (res.Err == nil) != (replay.Err == nil) {
			t.Fatalf("replay outcome diverged: %v vs %v", res.Err, replay.Err)
		}
		if res.Err != nil {
			if !errors.Is(replay.Err, errBug) {
				t.Fatalf("replayed error wrong: %v", replay.Err)
			}
			return // exercised the interesting branch
		}
		// Benign outcome verified; loop in case the race can still produce
		// the buggy direction (platform-dependent).
	}
}

func TestTraceSummaryNonEmpty(t *testing.T) {
	tr := &RunTrace{}
	if tr.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestReadTraceRejectsNullRecords: a null epoch record is an error naming its
// index, not a trace whose DecisionsFromTrace panics.
func TestReadTraceRejectsNullRecords(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{`{"epochs":[null],"max_lc":0}`, "epoch 0 is null"},
		{`{"epochs":[{"rank":1,"lc":0,"chosen":0,"order":1},null]}`, "epoch 1 is null"},
		{`{"epochs":[{"rank":1,"lc":0,"chosen":0},null,null]}`, "epoch 1 is null"},
	} {
		tr, err := ReadTrace(strings.NewReader(tc.in))
		if err == nil {
			t.Errorf("%s accepted as a trace of %d epochs", tc.in, len(tr.Epochs))
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.in, err, tc.want)
		}
	}
	for _, in := range []string{`{"epochs":null,"max_lc":0}`, `{"epochs":[]}`, `{}`} {
		tr, err := ReadTrace(strings.NewReader(in))
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		if d := DecisionsFromTrace(tr); !d.Empty() {
			t.Errorf("%s: an epoch-free trace decides %s", in, d)
		}
	}
}

// FuzzReadTrace: whatever ReadTrace accepts, DecisionsFromTrace turns into a
// decision set without panicking — sorted by (rank, LC), no key twice, every
// completed record decided — that survives its own JSON round trip.
func FuzzReadTrace(f *testing.F) {
	fig3, err := os.ReadFile("testdata/fig3_potential_matches.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig3)
	for _, seed := range []string{
		`{"epochs":[null],"max_lc":0}`,
		`{"epochs":[{"rank":-1,"lc":0,"chosen":0,"order":1},{"rank":0,"lc":0,"chosen":1,"order":2}]}`,
		`{"epochs":[{"rank":1000000000,"lc":3,"chosen":2,"order":1},{"rank":2,"lc":0,"chosen":0,"order":2}]}`,
		`{"epochs":[{"rank":1,"lc":0,"chosen":0,"order":1},{"rank":1,"lc":0,"chosen":2,"order":2}]}`,
		`{"epochs":[{"rank":0,"lc":5,"chosen":1},{"rank":0,"lc":2,"chosen":0},{"rank":1,"lc":9,"chosen":-1},{"rank":0,"lc":0,"chosen":3}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		d := DecisionsFromTrace(tr)
		for i := 1; i < len(d.entries); i++ {
			if compareKey(d.entries[i-1], d.entries[i]) >= 0 {
				t.Fatalf("%q: decisions %s not strictly sorted at %d", data, d, i)
			}
		}
		for _, rec := range tr.Epochs {
			if _, ok := d.Lookup(rec.Rank, rec.LC); rec.Chosen >= 0 && !ok {
				t.Fatalf("%q: completed record %v left undecided in %s", data, rec, d)
			}
		}
		body, err := d.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		back := NewDecisions()
		if err := back.UnmarshalJSON(body); err != nil {
			t.Fatalf("%q: emitted %s does not decode: %v", data, body, err)
		}
		if back.String() != d.String() {
			t.Fatalf("%q: emitted %s decodes to %s, want %s", data, body, back, d)
		}
	})
}
