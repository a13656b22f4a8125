package dexplore

import (
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

// Cadence is when a periodic checkpoint falls due: every Every merged
// replays, or with no Every once Interval has passed since the start or the
// last cut — and never while the last cut is still out, so cuts are written
// one at a time. It is a value with no clock and no lock: its holder keeps it
// under its own mutex and hands it the time, the Engine its clock's, the
// cluster coordinator's machine its event's.
type Cadence struct {
	Every int // merged replays between periodic cuts; 0 = by Interval
	// Interval is the default cadence's period (DefaultCheckpointInterval).
	// Not an option — one value is in use — but the seam of a holder's
	// in-package test, which shortens it before the start.
	Interval time.Duration
	since    int       // replays merged since the last cut
	last     time.Time // the start, then the last cut
	out      bool      // a cut is out: Due said so, Saved has not been called
}

// NewCadence is every merged replays, or by default (0 or less) one cut per
// DefaultCheckpointInterval.
func NewCadence(every int) Cadence {
	return Cadence{Every: max(every, 0), Interval: DefaultCheckpointInterval}
}

// Begin starts the clock at now, unless it has started.
func (c *Cadence) Begin(now time.Time) {
	if c.last.IsZero() {
		c.last = now
	}
}

// Due counts replays just merged at now and reports whether a cut falls due;
// on true one is out until Saved.
func (c *Cadence) Due(merged int, now time.Time) bool {
	c.since += merged
	if c.out || c.Every > 0 && c.since < c.Every || c.Every == 0 && now.Sub(c.last) < c.Interval {
		return false
	}
	c.since, c.last, c.out = 0, now, true
	return true
}

// Saved says the cut that is out has been written (or dropped).
func (c *Cadence) Saved() { c.out = false }

// CheckpointWriter is the one writer of an exploration's checkpoint file,
// held by the in-process Engine and by the cluster Coordinator. It owns the
// path and the order of the writes: a periodic write never lands after Close,
// and so never on top of the final cut. When a cut falls due is the holder's
// Cadence; the holder cuts the checkpoints under its own mutex, and the
// writes happen outside it.
type CheckpointWriter struct {
	path string
	// Save is the write step (Checkpoint.Save). Not an option, but the seam
	// of a holder's in-package test, which holds it open or fails it.
	Save func(*Checkpoint, string) error

	written atomic.Int64 // files written (each two fsyncs), the final included

	mu      sync.Mutex
	idle    *sync.Cond // a periodic write has ended
	writing bool       // a periodic write has begun
	closed  bool       // no periodic write begins any more
}

// NewCheckpointWriter creates the writer of path.
func NewCheckpointWriter(path string) *CheckpointWriter {
	w := &CheckpointWriter{path: path, Save: (*Checkpoint).Save}
	w.idle = sync.NewCond(&w.mu)
	return w
}

// Periodic writes a cut the holder's Cadence said was due — unless the writer
// was closed in between: the exploration is over, and its last cut is the
// newer. Best-effort: a failed periodic write must not kill the search, and
// leaves the previous file. The holder then calls its Cadence's Saved.
func (w *CheckpointWriter) Periodic(ckp *Checkpoint) {
	w.mu.Lock()
	open := !w.closed
	w.writing = open
	w.mu.Unlock()
	if !open {
		return
	}
	_ = w.write(ckp)
	w.mu.Lock()
	w.writing = false
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

// Written is the number of checkpoint files written so far, two fsyncs each
// (the file and its directory).
func (w *CheckpointWriter) Written() int64 { return w.written.Load() }
