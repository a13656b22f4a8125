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

// checkpointVersion guards the on-disk format. Version 2 writes the frontier
// in the table form (core.TableWriter): each pins array, each distinct prefix
// node and each task once. Version 1 wrote every task's prefix whole; it is
// still read, and a binary that knows only version 1 refuses a version-2 file.
const checkpointVersion = 2

// Checkpoint is a consistent snapshot of an exploration: the aggregates of
// every merged replay plus the frontier of subtree tasks still to run
// (including the roots of the leases out at snapshot time — resuming re-runs
// them, giving at-least-once coverage of every subtree). Write puts the
// frontier in the table form; the struct's own JSON (json.Marshal) is the
// version-1 flat form, each prefix in the core.Decisions file format, and
// either reads back.
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

	// LegacyStaticPruned is only ever read: checkpoints written while the
	// explorer could skip branches on static hints counted the skipped ones
	// here. Such a frontier lacks the skipped subtrees, so Validate refuses a
	// nonzero count by name rather than resume into a clean verdict over an
	// incomplete search. The old prune_disabled and prune_violations keys
	// decode into nothing and are ignored.
	LegacyStaticPruned int `json:"static_pruned,omitempty"`

	// Report is the aggregates of every completed replay, in core.Report's
	// own JSON form (sealed: sorted sampled keys and the canonical first
	// trace). Capped and SampledDistinct are derived, not stored; Restore
	// re-derives the latter.
	core.Report

	// Frontier holds the pending subtree tasks, oldest first (the engines
	// lease from the front).
	Frontier []*core.SubtreeTask `json:"frontier"`

	// table is the frontier as read: Validate checks its rows, and a lease
	// result's hangs from the lease's roots (HangFrom).
	table *core.TaskTable
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
	case c.Version != checkpointVersion && c.Version != 1:
		return fmt.Errorf("dexplore: checkpoint version %d, want %d (or 1)", c.Version, checkpointVersion)
	case c.LegacySampler != "":
		return fmt.Errorf("dexplore: checkpoint sampler=%q: a sampling checkpoint from before the sampler's parameters were recorded field by field cannot be resumed", c.LegacySampler)
	case c.LegacyStaticPruned != 0:
		return fmt.Errorf("dexplore: checkpoint static_pruned=%d: its frontier lacks the branches static pruning skipped, so it cannot be resumed", c.LegacyStaticPruned)
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
	case min(c.Interleavings, c.Deadlocks, c.DecisionPoints, c.AutoAbstracted, c.WildcardsAnalyzed, c.Sampled) < 0:
		return errors.New("dexplore: checkpoint report holds a negative count")
	}
	// The frontier as read is checked row by row; one changed since, task by
	// task.
	read := c.table
	if read == nil || !slices.Equal(c.Frontier, read.Tasks) {
		read = &core.TaskTable{Tasks: c.Frontier}
	}
	if err := read.InRange(c.Procs, c.ChoicePoints); err != nil {
		return fmt.Errorf("dexplore: checkpoint frontier: %w", err)
	}
	return nil
}

// HangFrom re-links the frontier of a lease result's delta to the lease's
// roots, the objects the coordinator holds for them (core.TaskTable.Relink),
// and returns, per frontier task, the index of the root it hangs from. A
// frontier that is not a table hanging from as many roots as the lease has is
// refused.
func (c *Checkpoint) HangFrom(roots []*core.SubtreeTask) ([]int, error) {
	if c.table == nil {
		return nil, errors.New("dexplore: a lease result's frontier is a flat list, not a table hanging from the lease's roots")
	}
	hang, err := c.table.Relink(roots)
	if err != nil {
		return nil, fmt.Errorf("dexplore: %w", err)
	}
	return hang, nil
}

// Restore is the inverse of NewCheckpoint: after validating the checkpoint
// against the resuming exploration's parameters it returns the report of
// everything completed so far (for the engine to keep adding to) and a copy of
// the frontier.
func (c *Checkpoint) Restore(workload string, cfg *core.ExplorerConfig) (*core.Report, []*core.SubtreeTask, error) {
	if err := c.Validate(workload, cfg); err != nil {
		return nil, nil, err
	}
	rep := c.Report
	rep.Errors = slices.Clone(rep.Errors) // the engine sorts its own list
	rep.SampledDistinct = len(rep.SampledSchedules)
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
// before the rename, and the directory is fsynced after it, so whatever is
// recorded once it returns (a truncated WAL, a Done record, "resume from
// here") never points at a file whose contents, or whose rename, a crash can
// still lose. A failure before the rename leaves the previous file as it was.
// The temporary name is unique, so concurrent replacements of one path each
// publish a complete file.
func ReplaceFile(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".*.tmp")
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
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close() // only read: its Sync is what can fail
	return d.Sync()
}

// Write serializes the checkpoint as compact JSON, its frontier as a table.
// The encoder holds the whole file in memory before writing it; indenting
// would build a second copy. ReadCheckpoint reads indented files too.
func (c *Checkpoint) Write(w io.Writer) error {
	var tw core.TableWriter
	v2 := *c // a version-1 file that was read is written as version 2
	v2.Version = checkpointVersion
	table := json.RawMessage(tw.Append(nil, c.Frontier, nil))
	return json.NewEncoder(w).Encode(TableForm{Checkpoint: &v2, Frontier: &table})
}

// TableForm is a checkpoint as version 2 writes it: every member as the
// struct's own, and the frontier as a table (core.TableWriter.Append) —
// hanging from a lease's roots in that lease's result. It is only ever
// encoded: Checkpoint reads either form.
type TableForm struct {
	*Checkpoint
	Frontier *json.RawMessage `json:"frontier"` // a pointer: a slice value would be boxed to be encoded
}

// UnmarshalJSON implements json.Unmarshaler: the frontier is read in either
// form (frontierIn), a table without a reflective walk.
func (c *Checkpoint) UnmarshalJSON(b []byte) error {
	type members Checkpoint // the fields, without this method
	in := struct {
		*members
		Frontier *frontierIn `json:"frontier"`
	}{members: (*members)(c)}
	*c = Checkpoint{}
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	if f := in.Frontier; f != nil {
		c.Frontier = f.table.Tasks
		if !f.flat {
			c.table = &f.table
		}
	}
	return nil
}

// frontierIn is a checkpoint's frontier as read: a table (core.TaskTable), or
// a version-1 file's flat list of tasks, each with its whole prefix — the one
// place that list is still read, into the table's Tasks.
type frontierIn struct {
	table core.TaskTable
	flat  bool
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *frontierIn) UnmarshalJSON(b []byte) error {
	if f.flat = b[0] == '['; f.flat { // encoding/json hands over the value alone, no space before it
		return json.Unmarshal(b, &f.table.Tasks)
	}
	return f.table.UnmarshalJSON(b)
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

// ReadCheckpoint deserializes a checkpoint from JSON, in either version. A
// frontier that hangs from lease roots is a lease result's, never a file's,
// and is refused.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	ckp := &Checkpoint{}
	if err := json.NewDecoder(r).Decode(ckp); err != nil {
		return nil, err
	}
	if ckp.table != nil && ckp.table.Roots() > 0 {
		return nil, errors.New("dexplore: checkpoint frontier hangs from lease roots")
	}
	return ckp, nil
}
