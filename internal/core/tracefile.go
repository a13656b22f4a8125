package core

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// The on-disk artifacts of a verification, mirroring the paper's workflow:
// each run appends its wildcard epochs and discovered potential matches to a
// Potential Matches file; the schedule generator turns them into Epoch
// Decisions files consumed by guided replays (decisions.go).

// Save writes the run trace (the Potential Matches log) as JSON.
func (t *RunTrace) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return t.Write(f)
}

// Write serializes the trace as indented JSON.
func (t *RunTrace) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

// LoadTrace reads a Potential Matches file.
func LoadTrace(path string) (*RunTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTrace(f)
}

// ReadTrace deserializes a trace from JSON. A null epoch record is an error:
// no run writes one, and every reader of a trace dereferences its records.
func ReadTrace(r io.Reader) (*RunTrace, error) {
	t := &RunTrace{}
	if err := json.NewDecoder(r).Decode(t); err != nil {
		return nil, err
	}
	for i, rec := range t.Epochs {
		if rec == nil {
			return nil, fmt.Errorf("core: trace epoch %d is null", i)
		}
	}
	return t, nil
}

// DecisionsFromTrace builds the Epoch Decisions that reproduce the traced
// run: every completed epoch forced to its observed match. This is how an
// offline scheduler (or a user, from a saved artifact) replays a run.
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
