// Package verify is the public entry point to DAMPI: scalable, distributed
// dynamic formal verification of MPI programs over the space of
// non-determinism (wildcard receives and probes), as described in "A Scalable
// and Distributed Dynamic Formal Verifier for MPI Programs" (SC 2010).
//
// A verification runs the program once in self-discovery mode, computes every
// potential alternate match of every wildcard receive using piggybacked
// Lamport clocks, and then replays the program depth-first, forcing each
// alternate match in turn, until the interleaving space — optionally bounded
// by the bounded-mixing and loop-iteration-abstraction heuristics — is
// covered. Deadlocks, program errors, resource leaks and the paper's §V
// unsafe pattern are reported with deterministic reproducers.
//
//	result, err := verify.Run(verify.Config{Procs: 4}, program)
//	if result.Errored() { ... result.Errors[0].Decisions reproduces it ... }
package verify

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/leak"
	"dampi/internal/sample"
	"dampi/internal/trace"
	"dampi/mpi"
)

// ClockMode selects causality-tracking precision.
type ClockMode = core.ClockMode

// Clock modes (see the paper's §II-C and §II-F).
const (
	// Lamport is the scalable default.
	Lamport = core.Lamport
	// VectorClock is precise but costs O(procs) piggyback state.
	VectorClock = core.VectorClock
)

// Unbounded disables bounded mixing: full depth-first coverage.
const Unbounded = core.Unbounded

// Transport selects the piggyback mechanism (paper §II-D).
type Transport = core.Transport

// Piggyback transports: Separate (the paper's separate-message scheme,
// default) or Inband payload packing.
const (
	Separate = core.Separate
	Inband   = core.Inband
)

// InterleavingResult describes one explored interleaving (with its
// reproducing decision set).
type InterleavingResult = core.InterleavingResult

// Decisions is the epoch-decisions artifact that reproduces an interleaving.
type Decisions = core.Decisions

// EpochID identifies a wildcard decision point: (rank, Lamport clock).
type EpochID = core.EpochID

// UnsafeReport is a §V omission-pattern alert.
type UnsafeReport = core.UnsafeReport

// RunTrace is one run's wildcard-epoch log (the Potential Matches artifact);
// Result.FirstTrace holds the canonical run's. Save/LoadTrace round-trip it.
type RunTrace = core.RunTrace

// LoadDecisions reads an Epoch Decisions file saved with Decisions.Save.
func LoadDecisions(path string) (*Decisions, error) { return core.LoadDecisions(path) }

// LoadTrace reads a Potential Matches file saved with RunTrace.Save (or via
// Config.ArtifactsDir).
func LoadTrace(path string) (*RunTrace, error) { return core.LoadTrace(path) }

// DecisionsFromTrace builds the decisions that replay a traced run.
func DecisionsFromTrace(t *RunTrace) *Decisions { return core.DecisionsFromTrace(t) }

// Config controls a verification.
type Config struct {
	// Procs is the number of MPI ranks to run the program with.
	Procs int
	// Clock selects Lamport (default) or vector clocks.
	Clock ClockMode
	// DualClock enables the paper's §V dual-Lamport-clock extension: a
	// second, lagging transmit clock closes the omission pattern where a
	// pending wildcard receive's clock escapes through a send or collective
	// before its Wait/Test (Fig. 10). Sketched as future work in the paper;
	// implemented here. Lamport mode only.
	DualClock bool
	// Transport selects the piggyback mechanism: Separate (default) or
	// Inband payload packing.
	Transport Transport
	// MixingBound is the bounded-mixing k. The zero value is k=0, NOT full
	// coverage: each wildcard epoch's alternates are explored in isolation.
	// Larger k allows k further decision levels below each flip to mix;
	// callers that want full depth-first coverage must set Unbounded
	// explicitly.
	MixingBound int
	// AutoLoopThreshold enables automatic loop detection (the paper's §VI
	// future work): after this many consecutive same-signature wildcard
	// epochs on a rank, further repetitions are treated like Pcontrol-
	// marked loop iterations and not explored. 0 disables.
	AutoLoopThreshold int
	// MaxInterleavings caps the number of replays; 0 means unlimited.
	MaxInterleavings int
	// StopOnFirstError ends the search at the first failing interleaving.
	StopOnFirstError bool
	// CheckLeaks enables the communicator/request leak checks (Table II).
	CheckLeaks bool
	// CollectStats enables MPI operation statistics (Table I categories).
	CollectStats bool
	// OnInterleaving, if non-nil, observes every explored interleaving,
	// once. With Workers > 0 the callback is serialized and may stop the
	// search, but results arrive — and are numbered, Index 0..N-1 — in
	// completion order, which depends on scheduling.
	OnInterleaving func(res *InterleavingResult)
	// ArtifactsDir, if non-empty, receives the run's file artifacts in the
	// paper's workflow shape: potential_matches.json (the first run's epoch
	// log) and error_<n>.decisions.json (one Epoch Decisions reproducer per
	// failing interleaving, replayable with Replay or `dampi -replay`).
	ArtifactsDir string
	// Workers selects the parallel exploration engine: the number of
	// concurrent replay slots, each leased a few subtrees of the search at a
	// time and exploring them depth-first in its own isolated MPI worlds. 0
	// runs the serial explorer: one stack, no goroutines, interleavings and
	// errors numbered in depth-first discovery order. The parallel engine
	// covers exactly the same interleaving set and reports the same errors
	// and counts; only result arrival order differs, and errors are listed
	// by reproducer.
	Workers int
	// CheckpointFile, if non-empty, persists the exploration frontier
	// periodically (CheckpointEvery) and at the end, so a killed verification
	// can continue with Resume. Parallel engine only: with Workers == 0 Run
	// returns an error rather than silently never writing the file.
	CheckpointFile string
	// CheckpointEvery, when positive, is the number of merged replays between
	// frontier checkpoint writes. While checkpointing, a slot's lease is then
	// merged after at most this many replays, so it also bounds what a crash
	// loses: CheckpointEvery replays per slot. 0 = one per
	// DefaultCheckpointInterval: a write every 250 ms of wall time, however
	// many replays that is, so a crash loses at most that much work and a run
	// shorter than it writes only its final checkpoint.
	CheckpointEvery int
	// Resume loads CheckpointFile and continues a previous exploration
	// instead of starting from the initial self-discovery run. Leak checks
	// and statistics are skipped on resume: their canonical first run
	// already happened in the original exploration.
	Resume bool
	// OnProgress, if non-nil (parallel engine only), receives a live
	// throughput snapshot every ProgressEvery (default 1s).
	OnProgress func(p Progress)
	// ProgressEvery is the OnProgress period.
	ProgressEvery time.Duration
	// PruneHints is an optional static prune-hint table (usually built with
	// StaticHints from the program's source): wildcard decision points whose
	// statically derived sender set is a singleton are not branched on.
	// Every observed match is cross-checked against the table; a mismatch
	// disables pruning for the rest of the exploration and is surfaced via
	// Result.PruneViolations. Nil verifies without static pruning.
	PruneHints *PruneHints
	// Mode selects the exploration mode: ModeExhaustive ("" or "exhaustive",
	// the default full DFS) or ModeSample ("sample", seeded schedule
	// sampling: exhaustive below SampleDepth, seeded walks beyond).
	Mode string
	// ChoicePoints records and replays Waitany/Waitsome/Testany completion
	// indexes and Iprobe found/not-found outcomes as first-class decision
	// points, enlarging the explored space beyond wildcard sources. Off by
	// default (existing verdicts and reports are byte-identical); forced on
	// in sample mode, whose walks need the enlarged space.
	ChoicePoints bool
	// SampleStrategy selects the sampling policy in sample mode: "random"
	// (default, uniform random walk) or "pct" (PCT-style priority schedules).
	SampleStrategy string
	// Samples is the sampled-schedule budget in sample mode (default 1).
	Samples int
	// Seed derives the sampled schedules; the same seed always reproduces
	// the identical schedule set and report.
	Seed uint64
	// SampleDepth is the flip-tree depth below which sample mode still
	// expands exhaustively ("exhaustive below depth d, sampled beyond").
	// 0 samples from the root.
	SampleDepth int
}

// Exploration modes for Config.Mode.
const (
	ModeExhaustive = "exhaustive"
	ModeSample     = "sample"
)

// explorerConfig is the one translation of the public Config to the core
// form, used by Run, Serve and Join: the world, the bounds, and the
// exploration space — stated once as a dexplore.Space, whose Apply sets the
// fields and builds the seeded sampler, so the local engines and the cluster
// layer cannot derive different spaces from one Config. program may be nil on
// a coordinator, which never replays.
func (cfg *Config) explorerConfig(program func(p *mpi.Proc) error) (core.ExplorerConfig, error) {
	if cfg.Procs < 1 {
		return core.ExplorerConfig{}, fmt.Errorf("verify: Procs must be >= 1, got %d", cfg.Procs)
	}
	space := dexplore.Space{
		Clock:             cfg.Clock,
		DualClock:         cfg.DualClock,
		Transport:         cfg.Transport,
		MixingBound:       cfg.MixingBound,
		AutoLoopThreshold: cfg.AutoLoopThreshold,
		ChoicePoints:      cfg.ChoicePoints,
		SampleDepth:       cfg.SampleDepth,
	}
	switch cfg.Mode {
	case "", ModeExhaustive:
	case ModeSample:
		strat, err := sample.ParseStrategy(cfg.SampleStrategy)
		if err != nil {
			return core.ExplorerConfig{}, err
		}
		// Sampling walks flip completion and probe outcomes too; without
		// choice points the sampled space would silently shrink to wildcard
		// sources.
		space.ChoicePoints = true
		space.SampleStrategy, space.Samples, space.SampleSeed = string(strat), cfg.Samples, cfg.Seed
	default:
		return core.ExplorerConfig{}, fmt.Errorf("verify: unknown Mode %q (want %q or %q)", cfg.Mode, ModeExhaustive, ModeSample)
	}
	ecfg := core.ExplorerConfig{
		Procs:            cfg.Procs,
		Program:          program,
		MaxInterleavings: cfg.MaxInterleavings,
		StopOnFirstError: cfg.StopOnFirstError,
	}
	space.Apply(&ecfg)
	return ecfg, nil
}

// PruneHints is a static prune-hint table shared by all replay workers.
type PruneHints = core.PruneHints

// PruneHintKey identifies one wildcard decision-point class in a hint table.
type PruneHintKey = core.PruneHintKey

// NewPruneHints builds a hint table from sender sets keyed by decision
// point; see core.NewPruneHints.
func NewPruneHints(sets map[PruneHintKey][]int) *PruneHints { return core.NewPruneHints(sets) }

// Progress is a live exploration throughput snapshot (parallel engine).
type Progress = dexplore.Progress

// Result is the outcome of a verification.
type Result struct {
	// Report is the coverage report: interleavings explored, errors with
	// reproducers, deadlocks, R*, §V alerts.
	*core.Report
	// Leaks is the leak report of the first (canonical) run; nil unless
	// CheckLeaks was set.
	Leaks *leak.Report
	// Stats holds operation statistics of the first run; nil unless
	// CollectStats was set.
	Stats *trace.Stats

	leakTracker *leak.Tracker
}

// Summary renders a one-line human-readable result: the report's coverage
// summary, then the leak verdict when leaks were checked.
func (r *Result) Summary() string {
	s := r.Report.Summary()
	if r.Leaks != nil {
		s += fmt.Sprintf(" c-leak=%v r-leak=%v", r.Leaks.HasCommLeak(), r.Leaks.HasRequestLeak())
	}
	return s
}

// Run verifies program over the space of MPI non-determinism.
func Run(cfg Config, program func(p *mpi.Proc) error) (*Result, error) {
	if program == nil {
		return nil, fmt.Errorf("verify: nil program")
	}
	ecfg, err := cfg.explorerConfig(program)
	if err != nil {
		return nil, err
	}
	if cfg.Resume && cfg.CheckpointFile == "" {
		return nil, fmt.Errorf("verify: Resume requires CheckpointFile")
	}
	if cfg.CheckpointFile != "" && cfg.Workers < 1 {
		return nil, fmt.Errorf("verify: CheckpointFile requires the parallel engine (Workers >= 1): the serial explorer neither writes nor resumes checkpoints")
	}
	res := &Result{}
	// Leak and statistics collection instrument the canonical (first) run
	// only, matching the paper's single-run overhead and local-check
	// methodology. On resume that run already happened in the original
	// exploration, so the hooks stay off. The mutex makes the first-run claim
	// safe under the parallel engine (whose root run happens before any
	// worker starts, but the guard costs nothing).
	var firstMu sync.Mutex
	firstRun := !cfg.Resume
	extra := func() []*mpi.Hooks {
		firstMu.Lock()
		defer firstMu.Unlock()
		var hs []*mpi.Hooks
		if firstRun {
			if cfg.CheckLeaks {
				tr := leak.NewTracker()
				hs = append(hs, tr.Hooks())
				res.leakTracker = tr
			}
			if cfg.CollectStats {
				res.Stats = trace.NewStats(cfg.Procs)
				hs = append(hs, res.Stats.Hooks())
			}
			firstRun = false
		}
		return hs
	}
	ecfg.PruneHints, ecfg.ExtraHooks, ecfg.OnInterleaving = cfg.PruneHints, extra, cfg.OnInterleaving
	var rep *core.Report
	if cfg.Workers > 0 {
		dcfg := dexplore.Config{
			Explorer:        ecfg,
			Workers:         cfg.Workers,
			CheckpointPath:  cfg.CheckpointFile,
			CheckpointEvery: cfg.CheckpointEvery,
			OnProgress:      cfg.OnProgress,
			ProgressEvery:   cfg.ProgressEvery,
		}
		if cfg.Resume {
			ckp, lerr := dexplore.LoadCheckpoint(cfg.CheckpointFile)
			if lerr != nil {
				return nil, fmt.Errorf("verify: loading checkpoint: %w", lerr)
			}
			dcfg.Resume = ckp
		}
		rep, err = dexplore.New(dcfg).Explore()
	} else {
		rep, err = core.NewExplorer(ecfg).Explore()
	}
	if err != nil {
		return nil, err
	}
	res.Report = rep
	if res.leakTracker != nil {
		res.Leaks = res.leakTracker.Report()
	}
	if cfg.ArtifactsDir != "" {
		if err := writeArtifacts(cfg.ArtifactsDir, res); err != nil {
			return nil, fmt.Errorf("verify: writing artifacts: %w", err)
		}
	}
	return res, nil
}

// writeArtifacts dumps the potential-matches trace and per-error reproducers.
func writeArtifacts(dir string, res *Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if res.FirstTrace != nil {
		if err := res.FirstTrace.Save(filepath.Join(dir, "potential_matches.json")); err != nil {
			return err
		}
	}
	for i, e := range res.Errors {
		name := fmt.Sprintf("error_%d.decisions.json", i)
		if err := e.Decisions.Save(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// MarkLoopBegin marks the start of a loop whose wildcard matches should not
// be explored (loop iteration abstraction, §III-B1). The application inserts
// these around fixed-pattern loops, like MPI_Pcontrol in the paper.
func MarkLoopBegin(p *mpi.Proc) { p.Pcontrol(core.PcontrolLoopLevel, core.LoopBegin) }

// MarkLoopEnd marks the end of a loop opened by MarkLoopBegin.
func MarkLoopEnd(p *mpi.Proc) { p.Pcontrol(core.PcontrolLoopLevel, core.LoopEnd) }

// Replay runs program once with the given epoch decisions enforced — the
// deterministic replay of a previously discovered interleaving (e.g. an
// error reproducer from Result.Errors).
func Replay(procs int, program func(p *mpi.Proc) error, d *Decisions) (*InterleavingResult, error) {
	if procs < 1 {
		return nil, fmt.Errorf("verify: Replay procs must be >= 1, got %d", procs)
	}
	if program == nil {
		return nil, fmt.Errorf("verify: nil program")
	}
	_, res, err := core.Replay(core.ExplorerConfig{Procs: procs, Program: program}, d)
	return res, err
}

// ReplayChoicePoints replays one decision vector with the enlarged
// choice-point space enabled: reproducers recorded by -choice-points or
// schedule-sampling runs encode Waitany/Testany completion indexes and
// Iprobe outcome suppressions, and those decisions only re-apply when the
// replaying tool tracks the same epochs. Plain Replay would silently take
// the natural outcomes and report the buggy schedule as clean.
func ReplayChoicePoints(procs int, program func(p *mpi.Proc) error, d *Decisions) (*InterleavingResult, error) {
	if procs < 1 {
		return nil, fmt.Errorf("verify: Replay procs must be >= 1, got %d", procs)
	}
	if program == nil {
		return nil, fmt.Errorf("verify: nil program")
	}
	_, res, err := core.Replay(core.ExplorerConfig{Procs: procs, Program: program, ChoicePoints: true}, d)
	return res, err
}
