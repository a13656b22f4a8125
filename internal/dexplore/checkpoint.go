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

	// Aggregates of completed replays.
	Interleavings     int                 `json:"interleavings"`
	Deadlocks         int                 `json:"deadlocks,omitempty"`
	DecisionPoints    int                 `json:"decision_points"`
	AutoAbstracted    int                 `json:"auto_abstracted,omitempty"`
	WildcardsAnalyzed int                 `json:"wildcards_analyzed"`
	Sampled           int                 `json:"sampled,omitempty"`
	SampledKeys       []string            `json:"sampled_keys,omitempty"`
	Unsafe            []core.UnsafeReport `json:"unsafe,omitempty"`
	Errors            []*CheckpointError  `json:"errors,omitempty"`

	// Static prune-hint state (absent without hints): the branches skipped
	// so far, and whether — and on what evidence — a violation switched the
	// hints off. A resumed run continues counting from here and keeps
	// disabled hints disabled.
	StaticPruned    int                   `json:"static_pruned,omitempty"`
	PruneDisabled   bool                  `json:"prune_disabled,omitempty"`
	PruneViolations []core.PruneViolation `json:"prune_violations,omitempty"`

	// FirstTrace is the initial self run's epoch log, carried so a resumed
	// run still reports the canonical trace.
	FirstTrace *core.RunTrace `json:"first_trace,omitempty"`

	// Frontier holds the pending subtree tasks, oldest first (the engines
	// lease from the front).
	Frontier []*core.SubtreeTask `json:"frontier"`
}

// CheckpointError is a failed interleaving's durable form: the reproducer
// plus the error text (the live error value does not survive JSON).
type CheckpointError struct {
	Index     int             `json:"index,omitempty"`
	Message   string          `json:"message"`
	Deadlock  bool            `json:"deadlock,omitempty"`
	Decisions *core.Decisions `json:"decisions"`
}

// NewCheckpoint is the one Report-to-Checkpoint copy, shared by this engine
// and the distributed coordinator: the exploration parameters of cfg, the
// aggregates of rep, the frontier. It seals a copy of rep first (sorted
// sampled keys, current prune-hint counters), so rep may be a live report
// that is still being added to.
func NewCheckpoint(workload string, cfg *core.ExplorerConfig, rep *core.Report, frontier []*core.SubtreeTask) *Checkpoint {
	sealed := *rep
	sealed.Seal(cfg, false)
	ckp := &Checkpoint{
		Version:           checkpointVersion,
		Workload:          workload,
		Procs:             cfg.Procs,
		Space:             SpaceOf(cfg),
		Interleavings:     sealed.Interleavings,
		Deadlocks:         sealed.Deadlocks,
		DecisionPoints:    sealed.DecisionPoints,
		AutoAbstracted:    sealed.AutoAbstracted,
		WildcardsAnalyzed: sealed.WildcardsAnalyzed,
		Sampled:           sealed.Sampled,
		SampledKeys:       sealed.SampledSchedules,
		Unsafe:            sealed.Unsafe,
		StaticPruned:      sealed.StaticPruned,
		PruneDisabled:     sealed.PruneDisabled,
		PruneViolations:   sealed.PruneViolations,
		FirstTrace:        sealed.FirstTrace,
		Frontier:          frontier,
	}
	for _, res := range sealed.Errors {
		ckp.Errors = append(ckp.Errors, &CheckpointError{
			Index:     res.Index,
			Message:   res.Err.Error(),
			Deadlock:  res.Deadlock,
			Decisions: res.Decisions,
		})
	}
	return ckp
}

// Validate checks that the checkpoint was produced under the given
// exploration parameters: resuming (or merging a lease's delta) with a
// different world size or Space would silently explore a different
// interleaving space, so every mismatch is a hard error naming the field. The
// workload name is checked only when both sides carry one.
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
	}
	return nil
}

// Restore is the one Checkpoint-to-Report copy, the inverse of
// NewCheckpoint: after validating the checkpoint against the resuming
// exploration's parameters it returns the report of everything completed so
// far (for the engine to keep adding to) and a copy of the frontier. The
// prune-hint table of cfg, if any, resumes from the saved counters.
func (c *Checkpoint) Restore(workload string, cfg *core.ExplorerConfig) (*core.Report, []*core.SubtreeTask, error) {
	if err := c.Validate(workload, cfg); err != nil {
		return nil, nil, err
	}
	rep := &core.Report{
		Interleavings:     c.Interleavings,
		Deadlocks:         c.Deadlocks,
		DecisionPoints:    c.DecisionPoints,
		AutoAbstracted:    c.AutoAbstracted,
		WildcardsAnalyzed: c.WildcardsAnalyzed,
		Sampled:           c.Sampled,
		SampledDistinct:   len(c.SampledKeys),
		SampledSchedules:  c.SampledKeys,
		Unsafe:            c.Unsafe,
		StaticPruned:      c.StaticPruned,
		PruneDisabled:     c.PruneDisabled,
		PruneViolations:   c.PruneViolations,
		FirstTrace:        c.FirstTrace,
	}
	for _, ce := range c.Errors {
		rep.Errors = append(rep.Errors, &core.InterleavingResult{
			Index:     ce.Index,
			Err:       errors.New(ce.Message),
			Deadlock:  ce.Deadlock,
			Decisions: ce.Decisions,
		})
	}
	cfg.PruneHints.Restore(rep.StaticPruned, rep.PruneDisabled, rep.PruneViolations)
	return rep, append([]*core.SubtreeTask(nil), c.Frontier...), nil
}

// Save writes the checkpoint atomically (temp file + rename), so a crash
// mid-write never corrupts the previous checkpoint.
func (c *Checkpoint) Save(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".ckp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := c.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
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
