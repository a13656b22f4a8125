package jobqueue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dampi/internal/dcoord"
	"dampi/internal/dexplore"
)

// Store directory layout. Everything lives under one root so backup/move is
// a directory copy:
//
//	wal.jsonl      append-only journal: one {op, job|id} record per line
//	snapshot.json  periodic full-state snapshot; the WAL is truncated after
//	ckp/<id>.json  per-job frontier checkpoints (dexplore.Checkpoint)
//	reports/<id>.json  per-job merged reports (JobReport)
const (
	walFile      = "wal.jsonl"
	snapshotFile = "snapshot.json"
	ckpDir       = "ckp"
	reportsDir   = "reports"
)

// Run policy, each value written once; neither is an option (one value of
// each is in use — in-package tests set the unexported field it initializes).
const (
	// snapshotRecords is the fewest WAL records that trigger a snapshot +
	// truncate, bounding what a restart replays (a store of more jobs waits
	// for as many records as it holds jobs).
	snapshotRecords = 256
	// sweepPeriod is how often the service looks for jobs past their TTL.
	sweepPeriod = 5 * time.Second
)

// walRecord is one journal line. Op "put" carries the job's full new state
// (records are idempotent: replaying a prefix twice converges); op "delete"
// removes it.
type walRecord struct {
	Op  string `json:"op"`
	Job *Job   `json:"job,omitempty"`
	ID  string `json:"id,omitempty"`
}

// snapshot is the full-state file. NextID persists the ID allocator across
// WAL truncation so deleted jobs never resurrect an ID.
type snapshot struct {
	Version int    `json:"version"`
	NextID  uint64 `json:"next_id"`
	Jobs    []*Job `json:"jobs"`
}

// Store is the durable job table: an in-memory map backed by the WAL. Every
// mutation appends one record before returning, and fsyncs it — so an
// acknowledged submission survives any crash — unless recovery would do the
// same without it (SetState to Merging); a snapshot once the WAL holds
// snapshotEvery records, or as many as the store holds jobs if that is more,
// bounds replay time.
type Store struct {
	dir           string
	snapshotEvery int
	now           func() time.Time // test seam

	// fsyncs so far: of the WAL, and of the files replaced beside it (reports,
	// snapshots, a drained job's checkpoint) with their directories.
	walSyncs, fileSyncs atomic.Int64

	mu         sync.Mutex
	jobs       map[string]*Job
	wal        *os.File
	walRecords int
	nextID     uint64
	closed     bool
}

// StoreConfig configures a Store.
type StoreConfig struct {
	// Dir is the persistence root; created if missing.
	Dir string
}

// OpenStore opens (or creates) the job store at cfg.Dir, replaying the
// snapshot and WAL. A torn final WAL line — the write a crash interrupted,
// never acknowledged — is cut off before anything is appended behind it; an
// undecodable line with records after it is damage, and an error. Jobs found
// in Running or Merging were in flight when the previous process died; they
// are reverted to Queued — with their attempt count intact, so the service
// resumes them from their frontier checkpoints.
func OpenStore(cfg StoreConfig) (*Store, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("jobqueue: store dir required")
	}
	for _, d := range []string{cfg.Dir, filepath.Join(cfg.Dir, ckpDir), filepath.Join(cfg.Dir, reportsDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("jobqueue: %w", err)
		}
	}
	s := &Store{
		dir:           cfg.Dir,
		snapshotEvery: snapshotRecords,
		now:           time.Now,
		jobs:          make(map[string]*Job),
		nextID:        1,
	}
	intact, err := s.load()
	if err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(cfg.Dir, walFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: open wal: %w", err)
	}
	s.wal = wal
	// Cut a torn tail off, durably, before the first append: a record glued
	// onto the fragment would hide every record behind it from the next load.
	if err = wal.Truncate(intact); err == nil {
		err = s.syncWAL()
	}
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("jobqueue: cut torn wal tail: %w", err)
	}

	// Crash recovery: in-flight jobs go back to the queue, durably — if we
	// crashed again before touching them, the next replay would redo the same
	// deterministic recovery, but persisting it keeps the WAL the single
	// source of truth for state history.
	var recovered []*Job
	for _, j := range s.jobs {
		if j.State == Running || j.State == Merging {
			j.State = Queued
			recovered = append(recovered, j)
		}
	}
	sort.Slice(recovered, func(i, k int) bool { return recovered[i].ID < recovered[k].ID })
	for _, j := range recovered {
		if err := s.append(walRecord{Op: "put", Job: j}, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// load replays snapshot.json then wal.jsonl into s.jobs and s.nextID, and
// returns the WAL offset just past the last record it applied: what follows
// is a torn tail. A record is a newline-terminated line; a line that does not
// decode is the torn tail when it is the last, and damage when records follow.
func (s *Store) load() (intact int64, err error) {
	snapPath := filepath.Join(s.dir, snapshotFile)
	if body, err := os.ReadFile(snapPath); err == nil {
		var snap snapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return 0, fmt.Errorf("jobqueue: corrupt snapshot %s: %w", snapPath, err)
		}
		for _, j := range snap.Jobs {
			if j == nil {
				return 0, fmt.Errorf("jobqueue: corrupt snapshot %s: null job", snapPath)
			}
			s.jobs[j.ID] = j
		}
		if snap.NextID > s.nextID {
			s.nextID = snap.NextID
		}
	} else if !os.IsNotExist(err) {
		return 0, fmt.Errorf("jobqueue: %w", err)
	}

	walPath := filepath.Join(s.dir, walFile)
	body, err := os.ReadFile(walPath)
	if err != nil && !os.IsNotExist(err) {
		return 0, fmt.Errorf("jobqueue: %w", err)
	}
	rest := body
	for lineNo := 1; ; lineNo++ {
		line, after, terminated := bytes.Cut(rest, []byte{'\n'})
		if !terminated {
			break // a fragment without its newline was never acknowledged
		}
		var rec walRecord
		if len(line) > 0 {
			if err := json.Unmarshal(line, &rec); err != nil {
				if len(after) > 0 {
					return 0, fmt.Errorf("jobqueue: wal %s line %d is damaged (%v) and records follow it; repair or remove the line", walPath, lineNo, err)
				}
				break
			}
		}
		rest = after
		switch rec.Op {
		case "put":
			if rec.Job != nil {
				s.jobs[rec.Job.ID] = rec.Job
				if n := idNumber(rec.Job.ID); n >= s.nextID {
					s.nextID = n + 1 // even if a later record deletes it
				}
			}
		case "delete":
			delete(s.jobs, rec.ID)
		}
	}
	for id := range s.jobs {
		if n := idNumber(id); n >= s.nextID {
			s.nextID = n + 1
		}
	}
	return int64(len(body) - len(rest)), nil
}

// idNumber parses the numeric part of a job ID ("j000042" → 42); 0 when the
// ID is foreign.
func idNumber(id string) uint64 {
	var n uint64
	if _, err := fmt.Sscanf(id, "j%d", &n); err != nil {
		return 0
	}
	return n
}

// append writes one WAL record — durably (fsync before return) when sync is
// set; otherwise the next synced record carries it to disk, and a crash before
// that loses it — then applies it to memory, and triggers a snapshot when the
// journal has grown enough. A record that could not be written or synced is
// not applied: what Get, List and Counts show never runs ahead of the
// journal. Callers hold s.mu.
func (s *Store) append(rec walRecord, sync bool) error {
	body, err := json.Marshal(&rec)
	if err != nil {
		return fmt.Errorf("jobqueue: marshal wal record: %w", err)
	}
	body = append(body, '\n')
	if _, err := s.wal.Write(body); err != nil {
		return fmt.Errorf("jobqueue: write wal: %w", err)
	}
	if sync {
		if err := s.syncWAL(); err != nil {
			return fmt.Errorf("jobqueue: sync wal: %w", err)
		}
	}
	if rec.Op == "delete" {
		delete(s.jobs, rec.ID)
	} else {
		s.jobs[rec.Job.ID] = rec.Job
	}
	s.walRecords++
	// Done jobs stay in the store, so a snapshot encodes every job ever
	// stored: waiting for as many records as jobs keeps what snapshots cost
	// per record bounded as the history grows, and snapshotEvery stays the
	// floor for a small store.
	if s.walRecords >= max(s.snapshotEvery, len(s.jobs)) {
		return s.snapshotLocked()
	}
	return nil
}

// syncWAL fsyncs the journal, and counts it.
func (s *Store) syncWAL() error {
	s.walSyncs.Add(1)
	return s.wal.Sync()
}

// replaceFile atomically and durably replaces path with what write produces
// (dexplore.ReplaceFile), and counts its two fsyncs: the file and its
// directory.
func (s *Store) replaceFile(path string, write func(io.Writer) error) error {
	s.fileSyncs.Add(2)
	return dexplore.ReplaceFile(path, write)
}

// writeBytes is the write step of a replaceFile whose content is body.
func writeBytes(body []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(body)
		return err
	}
}

// Syncs reports how many fsyncs the store has issued since it was opened: of
// the WAL, and of the files it replaces beside it.
func (s *Store) Syncs() (wal, file int64) {
	return s.walSyncs.Load(), s.fileSyncs.Load()
}

// snapshotLocked writes the full state to snapshot.json (replaceFile, so a
// crash mid-snapshot leaves the old one intact) and truncates the WAL it
// replaces. Callers hold s.mu.
func (s *Store) snapshotLocked() error {
	snap := snapshot{Version: 1, NextID: s.nextID, Jobs: make([]*Job, 0, len(s.jobs))}
	for _, j := range s.jobs {
		snap.Jobs = append(snap.Jobs, j)
	}
	sort.Slice(snap.Jobs, func(i, k int) bool { return snap.Jobs[i].ID < snap.Jobs[k].ID })
	body, err := json.Marshal(&snap) // compact: indenting would build a second copy
	if err != nil {
		return fmt.Errorf("jobqueue: marshal snapshot: %w", err)
	}
	if err := s.replaceFile(filepath.Join(s.dir, snapshotFile), writeBytes(body)); err != nil {
		return fmt.Errorf("jobqueue: %w", err)
	}
	// The snapshot now holds everything; restart the journal. Order matters:
	// truncating before the rename could lose acknowledged records.
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("jobqueue: truncate wal: %w", err)
	}
	s.walRecords = 0
	return nil
}

// put persists a job's full state, which then replaces the stored one. j
// must be a job s.jobs does not hold (a new job, or a clone to change).
// Callers hold s.mu.
func (s *Store) put(j *Job, sync bool) error {
	return s.append(walRecord{Op: "put", Job: j}, sync)
}

// Submit accepts a job. When an active job (queued, running or merging)
// already covers the same spec, that job is returned with dup=true instead
// of queueing a byte-identical exploration twice.
func (s *Store) Submit(spec dcoord.JobSpec, ttl time.Duration) (*Job, bool, error) {
	if err := validateSpec(&spec); err != nil {
		return nil, false, err
	}
	key := spec.Key()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("jobqueue: store closed")
	}
	for _, j := range s.jobs {
		if j.SpecKey == key && j.State.active() {
			return j.clone(), true, nil
		}
	}
	j := &Job{
		ID:          fmt.Sprintf("j%06d", s.nextID),
		Spec:        spec,
		SpecKey:     key,
		State:       Queued,
		SubmittedAt: s.now().UTC(),
	}
	if ttl > 0 {
		j.TTLSec = int64(ttl / time.Second)
	}
	s.nextID++
	if err := s.put(j, true); err != nil {
		return nil, false, err
	}
	return j.clone(), false, nil
}

// Get returns a copy of the job.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns copies of every job, sorted by ID (submission order).
func (s *Store) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// NextQueued returns a copy of the oldest queued job, if any.
func (s *Store) NextQueued() (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var best *Job
	for _, j := range s.jobs {
		if j.State != Queued {
			continue
		}
		if best == nil || j.ID < best.ID {
			best = j
		}
	}
	if best == nil {
		return nil, false
	}
	return best.clone(), true
}

// Counts tallies jobs per state (every state present, so metrics series
// never disappear).
func (s *Store) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[State]int{Queued: 0, Running: 0, Merging: 0, Done: 0, Failed: 0}
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}

// update applies fn to a copy of the job under the lock and persists the
// result, with an fsync if sync is set; the copy replaces the job only once
// it is persisted. fn returning an error aborts without persisting.
func (s *Store) update(id string, sync bool, fn func(*Job) error) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("jobqueue: store closed")
	}
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("jobqueue: no job %s", id)
	}
	j = j.clone()
	if err := fn(j); err != nil {
		return nil, err
	}
	if err := s.put(j, sync); err != nil {
		return nil, err
	}
	return j.clone(), nil
}

// SetState moves a job along a legal state-machine edge, stamping the
// lifecycle times. msg becomes the failure reason when to == Failed. Every
// edge is fsynced but the one into Merging: recovery requeues a Running and a
// Merging job alike, so losing that record to a crash changes nothing, and the
// job's next record (Finish, Failed) is synced and carries it.
func (s *Store) SetState(id string, to State, msg string) (*Job, error) {
	return s.update(id, to != Merging, func(j *Job) error {
		if !canTransition(j.State, to) {
			return fmt.Errorf("jobqueue: job %s: illegal transition %s → %s", id, j.State, to)
		}
		now := s.now().UTC()
		switch to {
		case Running:
			j.StartedAt = now
			j.Attempts++
		case Done, Failed:
			j.FinishedAt = now
		}
		if to == Failed {
			j.Error = msg
		}
		j.State = to
		return nil
	})
}

// RequestCancel durably marks cancellation intent on an active job.
func (s *Store) RequestCancel(id string) (*Job, error) {
	return s.update(id, true, func(j *Job) error {
		if j.State.Terminal() {
			return fmt.Errorf("jobqueue: job %s already %s", id, j.State)
		}
		j.CancelRequested = true
		return nil
	})
}

// Finish ends a job whose report SaveReport has made durable: its headline
// counters, HasReport and the Done state are one record, so no crash leaves a
// job Done without its report or its summary.
func (s *Store) Finish(id string, rep *JobReport) (*Job, error) {
	return s.update(id, true, func(j *Job) error {
		if !canTransition(j.State, Done) {
			return fmt.Errorf("jobqueue: job %s: illegal transition %s → %s", id, j.State, Done)
		}
		j.Interleavings = rep.Interleavings
		j.ErrorsFound = len(rep.Errors)
		j.Deadlocks = rep.Deadlocks
		j.Sampled = rep.Sampled
		j.SampledDistinct = rep.SampledDistinct
		j.HasReport = true
		j.FinishedAt = s.now().UTC()
		j.State = Done
		return nil
	})
}

// Delete removes a terminal job and its on-disk artifacts. Active jobs must
// be cancelled first — deleting the record under a live exploration would
// orphan it.
func (s *Store) Delete(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("jobqueue: store closed")
	}
	j, ok := s.jobs[id]
	if !ok {
		return fmt.Errorf("jobqueue: no job %s", id)
	}
	if !j.State.Terminal() {
		return fmt.Errorf("jobqueue: job %s is %s; cancel it first", id, j.State)
	}
	if err := s.append(walRecord{Op: "delete", ID: id}, true); err != nil {
		return err
	}
	os.Remove(s.CheckpointPath(id))
	os.Remove(s.ReportPath(id))
	return nil
}

// ttlExpired is the failure reason of a job that outlived its TTL.
const ttlExpired = "ttl expired"

// Overdue reports whether the job has a TTL and is past it (store's clock).
func (s *Store) Overdue(j *Job) bool {
	d := j.Deadline()
	return !d.IsZero() && !s.now().Before(d)
}

// SweepExpired fails queued jobs past their deadline and returns the IDs of
// running/merging jobs past theirs — those hold live cluster work, so the
// caller (the service) cancels the exploration and records the failure when
// the drain completes.
func (s *Store) SweepExpired() ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var overdue []string
	for _, j := range s.jobs {
		if !s.Overdue(j) {
			continue
		}
		switch j.State {
		case Queued:
			j = j.clone()
			j.State = Failed
			j.Error = ttlExpired
			j.FinishedAt = s.now().UTC()
			if err := s.put(j, true); err != nil {
				return overdue, err
			}
		case Running, Merging:
			overdue = append(overdue, j.ID)
		}
	}
	sort.Strings(overdue)
	return overdue, nil
}

// CheckpointPath is where the job's frontier checkpoint lives.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.dir, ckpDir, id+".json")
}

// ReportPath is where the job's merged report lives.
func (s *Store) ReportPath(id string) string {
	return filepath.Join(s.dir, reportsDir, id+".json")
}

// SaveReport persists the merged report (replaceFile: the Done record that
// follows is fsynced, so the report it points to must be too).
func (s *Store) SaveReport(id string, rep *JobReport) error {
	body, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("jobqueue: marshal report: %w", err)
	}
	if err := s.replaceFile(s.ReportPath(id), writeBytes(body)); err != nil {
		return fmt.Errorf("jobqueue: %w", err)
	}
	return nil
}

// SaveCheckpoint persists what a drained job has left, where the attempt
// that resumes it looks (CheckpointPath).
func (s *Store) SaveCheckpoint(id string, ckp *dexplore.Checkpoint) error {
	if err := s.replaceFile(s.CheckpointPath(id), ckp.Write); err != nil {
		return fmt.Errorf("jobqueue: %w", err)
	}
	return nil
}

// LoadReport reads a persisted report.
func (s *Store) LoadReport(id string) (*JobReport, error) {
	body, err := os.ReadFile(s.ReportPath(id))
	if err != nil {
		return nil, fmt.Errorf("jobqueue: %w", err)
	}
	var rep JobReport
	if err := json.Unmarshal(body, &rep); err != nil {
		return nil, fmt.Errorf("jobqueue: corrupt report for %s: %w", id, err)
	}
	return &rep, nil
}

// Snapshot forces a snapshot + WAL truncation (shutdown hygiene; crash
// safety never depends on it).
func (s *Store) Snapshot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("jobqueue: store closed")
	}
	return s.snapshotLocked()
}

// Close releases the WAL handle. The store stays readable from disk; this
// process just stops writing.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
