package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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
	got := &RunTrace{}
	if err := json.Unmarshal(buf.Bytes(), got); err != nil {
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := &RunTrace{}
	if err := json.Unmarshal(data, got); err != nil {
		t.Fatal(err)
	}
	if got.Summary() != trace.Summary() {
		t.Fatalf("summary changed: %s vs %s", got.Summary(), trace.Summary())
	}
}

func TestDecisionsFromTraceReplays(t *testing.T) {
	// A trace must be replayable: DecisionsFromTrace reproduces the run it
	// was taken from, including the error outcome.
	ex := NewExplorer(ExplorerConfig{Procs: 3, Program: fig3Program})
	for attempt := 0; attempt < 50; attempt++ {
		trace, res, err := ex.rc.Run(nil)
		if err != nil {
			t.Fatal(err)
		}
		d := DecisionsFromTrace(trace)
		_, replay, err := ExecuteRun(&ExplorerConfig{Procs: 3, Program: fig3Program}, d)
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
