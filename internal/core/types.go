// Package core implements DAMPI: the decentralized, Lamport-clock-based
// dynamic verifier of the paper (Algorithm 1) plus the offline schedule
// generator that drives depth-first replay over epoch decisions, the bounded
// mixing and loop-iteration-abstraction search heuristics, and the §V
// unsafe-pattern monitor.
//
// The per-run half (Tool) is fully decentralized: each rank maintains its own
// logical clock, piggybacks it on every message, classifies incoming messages
// as late, and records potential alternate matches for its wildcard epochs.
// The between-runs half (Explorer) is the paper's "Schedule Generator": it
// reads each run's potential-match log, maintains the DFS stack of epoch
// decisions, and produces the Epoch Decisions that guide the next replay.
package core

import (
	"fmt"

	"dampi/mpi"
)

// ClockMode selects the causality tracking precision (paper §II-C/§II-F).
type ClockMode int

// Clock modes.
const (
	// Lamport is the scalable default: one integer per rank. It can miss
	// potential matches in rare cross-coupled patterns (paper Fig. 4).
	Lamport ClockMode = iota
	// VectorClock is precise but costs O(procs) per message.
	VectorClock
)

func (m ClockMode) String() string {
	if m == VectorClock {
		return "vector"
	}
	return "lamport"
}

// EpochKind distinguishes the sources of MPI non-determinism the verifier
// records as decision points.
type EpochKind int

// Epoch kinds. RecvEpoch and ProbeEpoch are the paper's match
// non-determinism; the remaining kinds are the opt-in completion/outcome
// choice points (ToolConfig.Choices) that the schedule-sampling subsystem
// explores.
const (
	// RecvEpoch is a wildcard (MPI_ANY_SOURCE) receive.
	RecvEpoch EpochKind = iota
	// ProbeEpoch is a wildcard probe whose outcome was observed (blocking
	// probe, or nonblocking probe returning found=true).
	ProbeEpoch
	// WaitanyEpoch is a Waitany completion choice: Chosen is the completed
	// request index; Alternates are the other request indexes that had also
	// completed (unconsumed) when the call returned.
	WaitanyEpoch
	// TestanyEpoch is a positive Testany outcome (a Waitsome iteration is a
	// Waitany plus Testany epochs); encoding as WaitanyEpoch. Negative
	// outcomes are timing noise and record nothing.
	TestanyEpoch
	// IprobeEpoch is an Iprobe outcome choice: Chosen is 1 when the poll
	// reported a message (Alternates then holds 0, the suppressed not-found
	// branch) and 0 when a guided replay suppressed the find. Natural
	// not-found polls record nothing — their count is timing-dependent, and
	// recording them would break (rank, LC) decision alignment across runs.
	IprobeEpoch
)

func (k EpochKind) String() string {
	switch k {
	case ProbeEpoch:
		return "probe"
	case WaitanyEpoch:
		return "waitany"
	case TestanyEpoch:
		return "testany"
	case IprobeEpoch:
		return "iprobe"
	}
	return "recv"
}

// MatchKind reports whether the epoch kind carries a message-match decision
// (whose Chosen/Alternates are communicator-local sources discovered by
// late-message analysis). Completion and outcome epochs encode request
// indexes or found flags instead and take no part in match analysis.
func (k EpochKind) MatchKind() bool { return k == RecvEpoch || k == ProbeEpoch }

// EpochRecord is one wildcard decision point observed during a run: the
// epoch's identity (Rank, LC), what it matched, and the potential alternate
// matches discovered through late-message analysis.
type EpochRecord struct {
	Rank   int       `json:"rank"`
	LC     uint64    `json:"lc"`
	CommID int       `json:"comm"`
	Tag    int       `json:"tag"`
	Kind   EpochKind `json:"kind"`
	// Chosen is the communicator-local source that actually matched
	// (-1 if the receive never completed).
	Chosen int `json:"chosen"`
	// Alternates are the potential alternate sources (earliest late send
	// from each process, per §II-C), excluding Chosen.
	Alternates []int `json:"alternates,omitempty"`
	// Guided reports whether a decision forced this epoch: the decisions the
	// run was guided by hold (Rank, LC), whether or not the run could honor
	// them. The search reads it instead of looking the key up — expansion
	// and FlippableRecords skip guided records as the forced prefix — so
	// whatever makes a run (ExplorerConfig.Runner) must set it exactly so.
	Guided bool `json:"guided,omitempty"`
	// InLoop reports whether the epoch occurred inside a Pcontrol loop
	// region (loop iteration abstraction: not explored).
	InLoop bool `json:"in_loop,omitempty"`
	// Order is the global commit order of the match decision, used by the
	// schedule generator to order the DFS stack across ranks.
	Order uint64 `json:"order"`
}

// ID returns the epoch's identity.
func (e *EpochRecord) ID() EpochID { return EpochID{Rank: e.Rank, LC: e.LC} }

func (e *EpochRecord) String() string {
	return fmt.Sprintf("epoch{rank=%d lc=%d %s chosen=%d alts=%v}", e.Rank, e.LC, e.Kind, e.Chosen, e.Alternates)
}

// EpochID identifies a wildcard decision point across runs: the issuing rank
// and its Lamport clock value at the decision (unique per rank because every
// wildcard epoch increments the clock).
type EpochID struct {
	Rank int    `json:"rank"`
	LC   uint64 `json:"lc"`
}

func (id EpochID) String() string { return fmt.Sprintf("(%d,%d)", id.Rank, id.LC) }

// UnsafeReport is one detection of the paper's §V omission pattern: a
// wildcard nonblocking receive's updated clock escaped (via a send or a
// collective) before the receive's Wait/Test, which can make the algorithm
// miss matches. The monitor is local to each rank and scalable, as in the
// paper.
type UnsafeReport struct {
	Rank  int    `json:"rank"`
	LC    uint64 `json:"lc"`
	Op    string `json:"op"`      // the clock-transmitting operation
	Count int    `json:"pending"` // number of pending wildcard receives
}

func (u UnsafeReport) String() string {
	return fmt.Sprintf("unsafe-pattern{rank=%d lc=%d op=%s pending=%d}", u.Rank, u.LC, u.Op, u.Count)
}

// ForcedMismatch reports that a guided replay failed to enforce a decision:
// the epoch matched a different source than the decisions file demanded.
type ForcedMismatch struct {
	Epoch  EpochID `json:"epoch"`
	Forced int     `json:"forced"`
	Got    int     `json:"got"`
}

func (f ForcedMismatch) String() string {
	return fmt.Sprintf("forced-mismatch{%v forced=%d got=%d}", f.Epoch, f.Forced, f.Got)
}

// RunTrace is everything one instrumented run produced: the paper's
// "Potential Matches" log plus monitor output.
type RunTrace struct {
	// Epochs is every wildcard epoch of the run, sorted by commit Order.
	Epochs []*EpochRecord `json:"epochs"`
	// Unsafe holds §V pattern detections.
	Unsafe []UnsafeReport `json:"unsafe,omitempty"`
	// Mismatches holds guided-replay enforcement failures.
	Mismatches []ForcedMismatch `json:"mismatches,omitempty"`
	// MaxLC is the largest Lamport clock observed (a size measure).
	MaxLC uint64 `json:"max_lc"`
	// CommLeaks, RequestLeaks and Ops are what the run's world reported of
	// the program's own MPI use (mpi.World.CommLeaks, RequestLeaks, Ops): the
	// paper's Table II leak checks and Table I counts. A trace the run hands
	// its caller to keep carries them; they are not saved with it.
	CommLeaks    []mpi.CommLeak    `json:"-"`
	RequestLeaks []mpi.RequestLeak `json:"-"`
	Ops          mpi.OpCounts      `json:"-"`
}

// WildcardCount returns the number of wildcard receive/probe epochs
// analyzed (the paper's R* column in Table II).
func (t *RunTrace) WildcardCount() int { return len(t.Epochs) }
