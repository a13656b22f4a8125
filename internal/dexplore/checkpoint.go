package dexplore

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"dampi/internal/core"
)

// checkpointVersion guards the on-disk format.
const checkpointVersion = 1

// Checkpoint is a consistent snapshot of an exploration: the aggregates of
// every merged replay plus the frontier of subtree tasks still to run
// (including the roots of the leases out at snapshot time — resuming re-runs
// them, giving at-least-once coverage of every subtree). Decision prefixes
// round-trip through the same JSON format as core.Decisions files, so a
// frontier entry is itself a valid guided-replay artifact.
type Checkpoint struct {
	Version int `json:"version"`

	// Workload optionally names the program the exploration ran (set by the
	// distributed coordinator, where the program is selected by name on both
	// sides of the wire). Validated only when both checkpoint and config carry
	// a name, so single-process checkpoints stay compatible.
	Workload string `json:"workload,omitempty"`

	// Procs and the embedded Space are the exploration the checkpoint belongs
	// to, validated on resume.
	Procs int `json:"procs"`
	Space

	// LegacySampler is only ever read: checkpoints written before Space
	// carried a sampling exploration's strategy, budget and seed as this one
	// signature string. Such a file cannot say which Space it belongs to, so
	// Validate refuses it by name rather than resume a sampler's walk tasks
	// under whatever the config holds.
	LegacySampler string `json:"sampler,omitempty"`

	// Report is the aggregates of every completed replay, in core.Report's
	// own JSON form (sealed: sorted sampled keys, current prune-hint counters —
	// a resumed run continues counting from them and keeps disabled hints
	// disabled — and the canonical first trace). Capped and SampledDistinct
	// are derived, not stored; Restore re-derives the latter.
	core.Report

	// Frontier holds the pending subtree tasks, oldest first (the engines
	// lease from the front).
	Frontier []*core.SubtreeTask `json:"frontier"`
}

// NewCheckpoint is the one Report-to-Checkpoint step, shared by this engine
// and the distributed coordinator: the exploration parameters of cfg, a sealed
// snapshot of rep (which may be a live report that is still being added to),
// the frontier.
func NewCheckpoint(workload string, cfg *core.ExplorerConfig, rep *core.Report, frontier []*core.SubtreeTask) *Checkpoint {
	return &Checkpoint{
		Version:  checkpointVersion,
		Workload: workload,
		Procs:    cfg.Procs,
		Space:    SpaceOf(cfg),
		Report:   rep.Snapshot(cfg),
		Frontier: frontier,
	}
}

// Validate checks that the checkpoint was produced under the given
// exploration parameters: resuming (or merging a lease's delta) with a
// different world size or Space would silently explore a different
// interleaving space, so every mismatch is a hard error naming the field. The
// workload name is checked only when both sides carry one. A checkpoint is
// outside input, so a null task or error entry, a negative count and a frontier
// decision the world cannot replay (FuzzResume) are refused too.
func (c *Checkpoint) Validate(workload string, cfg *core.ExplorerConfig) error {
	var err error
	switch {
	case c.Version != checkpointVersion:
		return fmt.Errorf("dexplore: checkpoint version %d, want %d", c.Version, checkpointVersion)
	case c.LegacySampler != "":
		return fmt.Errorf("dexplore: checkpoint sampler=%q: a sampling checkpoint from before the sampler's parameters were recorded field by field cannot be resumed", c.LegacySampler)
	case c.Workload != "" && workload != "" && c.Workload != workload:
		err = Mismatch("workload", "checkpoint", c.Workload, "config", workload)
	case c.Procs != cfg.Procs:
		err = Mismatch("procs", "checkpoint", c.Procs, "config", cfg.Procs)
	default:
		err = c.Space.Diff(SpaceOf(cfg), "checkpoint", "config")
	}
	switch {
	case err != nil:
		return fmt.Errorf("dexplore: %w", err)
	case slices.Contains(c.Frontier, nil):
		return errors.New("dexplore: checkpoint frontier holds a null task")
	case slices.Contains(c.Errors, nil):
		return errors.New("dexplore: checkpoint error list holds a null entry")
	case min(c.Interleavings, c.Deadlocks, c.DecisionPoints, c.AutoAbstracted, c.WildcardsAnalyzed, c.Sampled, c.StaticPruned) < 0:
		return errors.New("dexplore: checkpoint report holds a negative count")
	}
	for _, t := range c.Frontier {
		if err := t.Decisions.InRange(c.Procs, c.ChoicePoints); err != nil {
			return fmt.Errorf("dexplore: checkpoint frontier: %w", err)
		}
	}
	return nil
}

// Restore is the inverse of NewCheckpoint: after validating the checkpoint
// against the resuming exploration's parameters it returns the report of
// everything completed so far (for the engine to keep adding to) and a copy of
// the frontier. The prune-hint table of cfg, if any, resumes from the saved
// counters.
func (c *Checkpoint) Restore(workload string, cfg *core.ExplorerConfig) (*core.Report, []*core.SubtreeTask, error) {
	if err := c.Validate(workload, cfg); err != nil {
		return nil, nil, err
	}
	rep := c.Report
	rep.Errors = slices.Clone(rep.Errors) // the engine sorts its own list
	rep.SampledDistinct = len(rep.SampledSchedules)
	cfg.PruneHints.Restore(rep.StaticPruned, rep.PruneDisabled, rep.PruneViolations)
	return &rep, slices.Clone(c.Frontier), nil
}

// Save writes the checkpoint atomically and durably (ReplaceFile), so a crash
// mid-write never corrupts the previous checkpoint and a crash after it never
// finds the new one empty.
func (c *Checkpoint) Save(path string) error {
	return ReplaceFile(path, c.Write)
}

// ReplaceFile atomically replaces path with what write produces, durably: the
// bytes are written and fsynced under a temporary name in path's directory
// before the rename, so whatever is recorded once it returns (a truncated WAL,
// a Done record, "resume from here") never points at a file whose contents a
// crash can still lose, and a failure at any step leaves the previous file
// as it was. The temporary name is unique, so concurrent replacements of one
// path each publish a complete file.
func ReplaceFile(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = f.Chmod(0o644) // CreateTemp's 0600 is for secrets; these are reports
	if err == nil {
		err = write(f)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// Write serializes the checkpoint as JSON.
func (c *Checkpoint) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// LoadCheckpoint reads a checkpoint file saved with Save.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ReadCheckpoint deserializes a checkpoint from JSON.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ckp := &Checkpoint{}
	if err := json.NewDecoder(r).Decode(ckp); err != nil {
		return nil, err
	}
	return ckp, nil
}
