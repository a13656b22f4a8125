package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// A run's Potential Matches log, written for people to read. The paper passes
// it to an offline scheduler through a file; here the search keeps every
// run's trace in memory and derives the next decisions from it
// (RunContext.Explore), so nothing reads the file back. The one artifact a
// later run reads is an Epoch Decisions reproducer (decisions.go).

// Save writes the run trace (the Potential Matches log) as JSON.
func (t *RunTrace) Save(path string) error {
	return saveFile(path, t.Write)
}

// Write serializes the trace as indented JSON.
func (t *RunTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// DecisionsFromTrace builds the Epoch Decisions that reproduce the traced
// run: every completed epoch forced to its observed match.
func DecisionsFromTrace(t *RunTrace) *Decisions {
	d := NewDecisions()
	d.pin(t.Epochs)
	return d
}

// Summary renders a compact human-readable description of the trace.
func (t *RunTrace) Summary() string {
	alts := 0
	for _, e := range t.Epochs {
		alts += len(e.Alternates)
	}
	return fmt.Sprintf("trace{epochs=%d alternates=%d unsafe=%d mismatches=%d maxLC=%d}",
		len(t.Epochs), alts, len(t.Unsafe), len(t.Mismatches), t.MaxLC)
}
