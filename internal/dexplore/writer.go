package dexplore

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultCheckpointInterval is the time between two periodic checkpoint
// writes of an exploration that sets no CheckpointEvery: what a crash can lose
// per slot, and — a write being about a millisecond (46 KB of ADLB frontier:
// 1.3 ms) — about half a percent of one slot's time. It is counted from the
// start of the run, so an exploration shorter than it writes only its final
// checkpoint.
const DefaultCheckpointInterval = 250 * time.Millisecond

// CheckpointWriter is the one writer of an exploration's checkpoint file,
// held by the in-process Engine and by the cluster Coordinator. It owns the
// path, the cadence — an explicit count of merged replays, or by default the
// clock — and the order of the writes: one periodic write at a time, each
// cut newer than the last, and none begun after Close. The holder cuts the
// checkpoints, under its own mutex, and calls Due from under it; the writes
// happen outside it. A writer without a path is never due.
type CheckpointWriter struct {
	path  string
	every int // merged replays between periodic writes; 0 = by Interval
	// Interval is the default cadence's period (DefaultCheckpointInterval) and
	// Save the write step (Checkpoint.Save). Neither is an option — one value
	// of each is in use — but the seam of a holder's in-package test, which
	// shortens the one or holds the other open, before Begin.
	Interval time.Duration
	Save     func(*Checkpoint, string) error

	written atomic.Int64 // files written (each one fsync), the final included

	mu      sync.Mutex
	idle    *sync.Cond // a periodic write has ended
	since   int        // replays merged since the last periodic cut
	last    time.Time  // the run's start, then the last periodic cut
	due     bool       // a periodic cut is out: Due said so, Periodic has not returned
	writing bool       // and its write has begun
	closed  bool       // no periodic write begins any more
}

// NewCheckpointWriter creates the writer of path ("" = none). every is the
// explicit cadence, in merged replays; 0 or less selects the default, one
// write per DefaultCheckpointInterval.
func NewCheckpointWriter(path string, every int) *CheckpointWriter {
	w := &CheckpointWriter{
		path:     path,
		every:    max(every, 0),
		Interval: DefaultCheckpointInterval,
		Save:     (*Checkpoint).Save,
	}
	w.idle = sync.NewCond(&w.mu)
	return w
}

// Begin marks the start of the run: the default cadence's first interval
// counts from here.
func (w *CheckpointWriter) Begin() {
	w.mu.Lock()
	w.last = time.Now()
	w.mu.Unlock()
}

// LeaseCap is the most replays a lease may run before it is merged: the
// explicit count, which so bounds what a crash loses per slot, and no bound
// under the default cadence — there a lease's time slice is the bound.
func (w *CheckpointWriter) LeaseCap() int {
	if w.path == "" || w.every == 0 {
		return math.MaxInt
	}
	return w.every
}

// Due counts merged replays just merged and reports whether a periodic write
// falls due. On true the caller cuts a checkpoint before it releases the mutex
// it called Due under — cuts are then ordered as the writes are — and owes one
// Periodic call with it, outside that mutex.
func (w *CheckpointWriter) Due(merged int) bool {
	if w.path == "" {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.since += merged
	if w.due || w.closed {
		return false
	}
	if w.every > 0 {
		if w.since < w.every {
			return false
		}
	} else {
		now := time.Now()
		if now.Sub(w.last) < w.Interval {
			return false
		}
		w.last = now
	}
	w.since, w.due = 0, true
	return true
}

// Periodic writes the checkpoint a true Due asked for — unless the writer was
// closed in between: the exploration is over, and its last cut is the newer.
// Best-effort: a failed periodic write must not kill the search, and leaves
// the previous file.
func (w *CheckpointWriter) Periodic(ckp *Checkpoint) {
	w.mu.Lock()
	open := !w.closed
	w.writing = open
	w.mu.Unlock()
	if open {
		_ = w.write(ckp)
	}
	w.mu.Lock()
	w.due, w.writing = false, false
	w.idle.Broadcast()
	w.mu.Unlock()
}

// Close ends periodic writing: it returns once no periodic write is under
// way, and none begins after it (a cut that is out but not yet being written
// is dropped, so Close never waits for its own caller). What is on disk then
// stays as it is until Final, or whoever owns the path, replaces or removes
// it.
func (w *CheckpointWriter) Close() {
	w.mu.Lock()
	w.closed = true
	for w.writing {
		w.idle.Wait()
	}
	w.mu.Unlock()
}

// Final closes the writer and writes the exploration's last checkpoint, so
// no older cut can land on top of it.
func (w *CheckpointWriter) Final(ckp *Checkpoint) error {
	w.Close()
	return w.write(ckp)
}

func (w *CheckpointWriter) write(ckp *Checkpoint) error {
	err := w.Save(ckp, w.path)
	if err == nil {
		w.written.Add(1)
	}
	return err
}

// Written is the number of checkpoint files written so far, one fsync each.
func (w *CheckpointWriter) Written() int64 { return w.written.Load() }
