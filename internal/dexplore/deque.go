package dexplore

import (
	"sync"
	"sync/atomic"

	"dampi/internal/core"
)

// worker is one exploration worker: a replay slot plus its own DFS deque and
// partial report. The hot path — pop a task, replay it, push its
// expansion, account the result — touches only this worker's uncontended
// mutex and a handful of engine atomics; no shared lock is ever taken while
// work is plentiful. Thieves and checkpoint snapshots take mu from outside,
// which is why the deque and the report are locked at all.
type worker struct {
	id int
	e  *Engine

	mu      sync.Mutex
	tasks   []*core.SubtreeTask // tasks[head:] live; owner end is the tail
	head    int                 // steal end: oldest (shallowest) task first
	current *core.SubtreeTask   // task being replayed (nil when idle)

	// rep accounts the tasks this worker completed; merged into the engine
	// report at finish (and read under mu by checkpoint snapshots).
	// Owner-written only.
	rep core.Report

	// size mirrors len(tasks)-head so idle workers can scan for victims
	// without touching any lock.
	size atomic.Int32

	rc *core.RunContext
}

// push appends tasks at the owner end (deepest last, so popOwn pops the
// deepest next, mirroring the serial DFS within this worker's subtree).
func (w *worker) push(ts []*core.SubtreeTask) {
	if len(ts) == 0 {
		return
	}
	w.mu.Lock()
	w.tasks = append(w.tasks, ts...)
	w.size.Store(int32(len(w.tasks) - w.head))
	w.mu.Unlock()
}

// popOwn takes the deepest pending task and marks it in flight.
func (w *worker) popOwn() *core.SubtreeTask {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := len(w.tasks)
	if n == w.head {
		return nil
	}
	t := w.tasks[n-1]
	w.tasks[n-1] = nil
	w.tasks = w.tasks[:n-1]
	if w.head == n-1 {
		// Drained: reset so the backing array does not grow without bound.
		w.tasks = w.tasks[:0]
		w.head = 0
	}
	w.size.Store(int32(len(w.tasks) - w.head))
	w.current = t
	return t
}

// unpop returns an in-flight task to the deque (the interleaving-ticket
// counter ran out after the pop); the task stays available for the final
// checkpoint's frontier.
func (w *worker) unpop(t *core.SubtreeTask) {
	w.mu.Lock()
	w.tasks = append(w.tasks, t)
	w.size.Store(int32(len(w.tasks) - w.head))
	w.current = nil
	w.mu.Unlock()
}

// stealInto moves roughly half of v's pending tasks to the thief — oldest
// first, so the thief walks off with the shallowest (largest) subtrees and v
// keeps the deep work its own DFS is about to finish. The first stolen task
// becomes the thief's current and is returned for immediate replay; the rest
// land in the thief's deque. Returns nil when v has nothing to spare.
//
// Both mutexes are held for the transfer, acquired in ascending worker-id
// order — the same order the stop-the-world checkpoint uses — so a snapshot
// can never observe a task in neither deque mid-steal, and two concurrent
// thieves cannot deadlock.
func (v *worker) stealInto(thief *worker) *core.SubtreeTask {
	a, b := v, thief
	if a.id > b.id {
		a, b = b, a
	}
	a.mu.Lock()
	b.mu.Lock()
	defer a.mu.Unlock()
	defer b.mu.Unlock()

	avail := len(v.tasks) - v.head
	if avail == 0 {
		return nil
	}
	k := (avail + 1) / 2
	t := v.tasks[v.head]
	thief.tasks = append(thief.tasks, v.tasks[v.head+1:v.head+k]...)
	thief.size.Store(int32(len(thief.tasks) - thief.head))
	thief.current = t
	for i := v.head; i < v.head+k; i++ {
		v.tasks[i] = nil
	}
	v.head += k
	if v.head == len(v.tasks) {
		v.tasks = v.tasks[:0]
		v.head = 0
	}
	v.size.Store(int32(len(v.tasks) - v.head))
	return t
}
