// Package dcoord is the distributed exploration service: a coordinator /
// worker cluster layer that scales the epoch-decision search of
// internal/dexplore across machines, in the spirit of the paper's
// distributed-replay outlook. The coordinator owns the frontier of
// core.SubtreeTask subtrees and the report aggregation; workers connect over
// TCP and are leased sets of subtrees, which each explores depth-first on its
// own core.RunContext (the loop core.Explorer runs) for a time slice, sending
// back one report delta and the subtrees it did not get to. The coordinator is
// on the path of a lease, not of a replay. The merged report covers exactly
// the interleaving set a single-process run would cover.
//
// Fault tolerance is lease-based: every lease is time-bounded and renewed by
// heartbeats. It expires when its worker crashes, hangs, or disconnects, and
// its subtrees are requeued (with a redelivery cap so a poison subtree cannot
// loop forever). Completed-subtree deduplication makes the at-least-once
// delivery effectively-once in the report, so killing a worker
// mid-exploration still yields the identical report.
//
// The wire protocol is deliberately boring: length-prefixed JSON frames over
// a plain TCP connection (stdlib only), with a fingerprint handshake that
// refuses workers whose workload or exploration parameters differ from the
// coordinator's.
package dcoord

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/sample"
)

// protoVersion guards the frame format; a worker with a different protocol
// version is rejected at handshake. Version 2 replaced the task frame's
// single lease/task/root fields with a batch of wire tasks, so a v1 worker
// would silently drop every lease a v2 coordinator granted it (and vice
// versa) — the handshake refuses the pairing instead. Version 3 made the
// cluster multi-job: task and result frames carry a job id, the job/jobdone
// frames announce which exploration the leases that follow belong to, and
// the hello may omit the fingerprint (an any-workload worker builds its
// program per job from the announced JobSpec). A v2 worker would drop every
// job announcement and misroute results, so the pairing is refused. Version 4
// moved the task key onto the wire: a task frame carries it and the result
// echoes it instead of each side rendering the decision prefix again. A v4
// worker would echo the empty key a v3 coordinator never sent, collapsing
// its done-set into one entry, so the pairing is refused. Version 5 made the
// lease a set of subtrees with a replay budget and its result one report
// delta: a v4 worker would find no task in a v5 lease, and a v5 coordinator no
// delta in a v4 result, so the pairing is refused.
const protoVersion = 5

// maxFrameSize bounds a single frame (a lease's leftover frontier or the root
// trace can be large, but anything beyond this is a corrupt stream).
const maxFrameSize = 64 << 20

// maxHelloSize bounds the one frame read from a peer that has not identified
// itself yet: a hello is a few hundred bytes, and readFrame allocates what
// the 4-byte header announces.
const maxHelloSize = 64 << 10

// Frame types.
const (
	// msgHello is the worker's opening frame: protocol version, worker name,
	// slot count and config fingerprint.
	msgHello = "hello"
	// msgWelcome accepts a hello; carries the lease TTL the worker must
	// heartbeat within.
	msgWelcome = "welcome"
	// msgReject refuses a hello (fingerprint or protocol mismatch). The
	// worker must not retry: the mismatch is permanent.
	msgReject = "reject"
	// msgTask grants the worker leases, one per free slot.
	msgTask = "task"
	// msgResult returns one lease: what was explored and what was not.
	msgResult = "result"
	// msgHeartbeat renews all of the worker's leases.
	msgHeartbeat = "heartbeat"
	// msgDone tells the worker the exploration is over; it disconnects and
	// exits cleanly.
	msgDone = "done"
	// msgJob announces the active job: every task frame that follows belongs
	// to it until the next job or jobdone frame. The spec carries everything
	// a worker needs to build the program (an any-workload worker constructs
	// its replay context from it; a pinned worker checks it matches).
	msgJob = "job"
	// msgJobDone tells the worker one job's exploration ended. Unlike
	// msgDone the connection stays open: the worker discards that job's
	// replay contexts and waits for the next job announcement.
	msgJobDone = "jobdone"
)

// frame is the single wire envelope; Type selects which fields are
// meaningful. One struct (rather than one per message) keeps the codec to a
// single json.Decoder with no two-phase dispatch.
type frame struct {
	Type string `json:"type"`

	// hello. A pinned worker (it runs one caller-supplied program) sends its
	// Fingerprint plus the workload parameters baked into that program; an
	// any-workload worker sends AnyWorkload instead and builds programs per
	// job from announced specs.
	Proto       int          `json:"proto,omitempty"`
	Worker      string       `json:"worker,omitempty"`
	Slots       int          `json:"slots,omitempty"`
	Fingerprint *Fingerprint `json:"fingerprint,omitempty"`
	AnyWorkload bool         `json:"any_workload,omitempty"`
	Scale       int          `json:"scale,omitempty"`
	Iters       int          `json:"iters,omitempty"`

	// reject
	Reason string `json:"reason,omitempty"`

	// welcome
	LeaseTTLMillis int64 `json:"lease_ttl_ms,omitempty"`

	// job / jobdone / task / result: the job the frame belongs to. Empty in
	// single-job explorations (verify.Serve), where there is nothing to
	// distinguish.
	Job  string   `json:"job,omitempty"`
	Spec *JobSpec `json:"spec,omitempty"`

	// task: the leases granted this round, one per free slot of the worker.
	Tasks []wireTask `json:"tasks,omitempty"`

	// result
	Result *WireResult `json:"result,omitempty"`
}

// wireTask is one lease: subtrees from the coordinator's frontier and the
// number of replays the worker may spend on them. Keys[i] is Tasks[i]'s
// identity as the coordinator computed it when the task entered its frontier;
// the worker echoes the keys in the result without rendering them again.
type wireTask struct {
	Lease  uint64              `json:"lease"`
	Keys   []string            `json:"keys"`
	Tasks  []*core.SubtreeTask `json:"tasks"`
	Budget int                 `json:"budget,omitempty"` // 0 = unbounded
}

// WireResult returns one lease.
type WireResult struct {
	// Lease and Keys echo the task frame's. The coordinator deduplicates by
	// its own copy of the keys while the lease is held, and by these for a
	// result that outlived its lease.
	Lease uint64   `json:"lease"`
	Keys  []string `json:"keys"`

	// Fatal, if non-empty, reports a replay-harness failure (not a program
	// error): the exploration must abort, matching the single-process
	// engines' error return.
	Fatal string `json:"fatal,omitempty"`

	// Delta is everything the lease's replays add to the exploration, in the
	// checkpoint codec: the report of the replays run (a failing or sampled
	// one with its reproducer, the root with its trace) and, as its frontier,
	// what is left of the lease's subtrees — the expansions not reached and
	// any root not started. A leased root absent from the frontier is done.
	Delta *dexplore.Checkpoint `json:"delta,omitempty"`
}

// JobSpec is the complete, self-contained description of one verification
// job: everything a worker needs to rebuild the program (workload name plus
// the parameters that shape it) and everything that shapes the interleaving
// space (the Fingerprint fields), plus the job-level exploration bounds. It
// is the unit the job queue persists and the msgJob frame announces.
type JobSpec struct {
	// Workload names the registered program both sides build.
	Workload string `json:"workload"`
	// Procs is the MPI world size.
	Procs int `json:"procs"`
	// Scale divides traffic volumes for the proxy workloads that support it.
	Scale int `json:"scale,omitempty"`
	// Iters is the outer iteration count for the proxies that support it.
	Iters int `json:"iters,omitempty"`

	// Exploration-space parameters (the Fingerprint fields).
	Clock             core.ClockMode `json:"clock"`
	DualClock         bool           `json:"dual_clock,omitempty"`
	Transport         core.Transport `json:"transport"`
	MixingBound       int            `json:"mixing_bound"`
	AutoLoopThreshold int            `json:"auto_loop_threshold,omitempty"`

	// Schedule-sampling parameters (all omitempty: an exhaustive spec keys
	// and fingerprints exactly as before the sampling subsystem existed).
	ChoicePoints   bool   `json:"choice_points,omitempty"`
	SampleStrategy string `json:"sample_strategy,omitempty"` // "" = exhaustive
	Samples        int    `json:"samples,omitempty"`
	SampleSeed     uint64 `json:"sample_seed,omitempty"`
	SampleDepth    int    `json:"sample_depth,omitempty"`

	// Job-level bounds.
	MaxInterleavings int  `json:"max_interleavings,omitempty"`
	StopOnFirstError bool `json:"stop_on_first_error,omitempty"`
}

// Normalize fills workload-parameter defaults (the same defaults the CLI
// flags use), so two submissions that mean the same job hash the same.
func (s *JobSpec) Normalize() {
	if s.Scale == 0 {
		s.Scale = 100
	}
	if s.Iters == 0 {
		s.Iters = 4
	}
	// A sampling spec branches on choice points by definition (walk flips
	// include Waitany/Iprobe outcomes), exactly as verify.Config forces for
	// local runs; normalizing it here keeps raw REST submissions consistent.
	if s.SampleStrategy != "" {
		s.ChoicePoints = true
	}
}

// Validate rejects a spec no worker could run.
func (s *JobSpec) Validate() error {
	if s.Workload == "" {
		return fmt.Errorf("dcoord: job spec without a workload name")
	}
	if s.Procs < 1 {
		return fmt.Errorf("dcoord: job spec procs must be >= 1, got %d", s.Procs)
	}
	if s.SampleStrategy != "" {
		if _, err := sample.ParseStrategy(s.SampleStrategy); err != nil {
			return err
		}
	}
	return nil
}

// Fingerprint projects the spec onto the exploration-compatibility
// fingerprint pinned workers are checked against.
func (s *JobSpec) Fingerprint() Fingerprint {
	return Fingerprint{
		Workload:          s.Workload,
		Procs:             s.Procs,
		Clock:             s.Clock,
		DualClock:         s.DualClock,
		Transport:         s.Transport,
		MixingBound:       s.MixingBound,
		AutoLoopThreshold: s.AutoLoopThreshold,
		ChoicePoints:      s.ChoicePoints,
		SampleStrategy:    s.SampleStrategy,
		Samples:           s.Samples,
		SampleSeed:        s.SampleSeed,
		SampleDepth:       s.SampleDepth,
	}
}

// ExplorerConfig projects the spec onto the per-worker replay configuration
// (the program itself is attached by the worker's factory).
func (s *JobSpec) ExplorerConfig() core.ExplorerConfig {
	return s.Fingerprint().ExplorerConfig()
}

// Key is the spec's canonical identity: the hex SHA-256 of its normalized
// JSON form. The job queue deduplicates submissions by it — two jobs with
// the same key would explore byte-identical spaces and produce the same
// report.
func (s *JobSpec) Key() string {
	n := *s
	n.Normalize()
	body, err := json.Marshal(&n)
	if err != nil {
		// Marshalling a flat struct of value fields cannot fail.
		panic(fmt.Sprintf("dcoord: marshal JobSpec: %v", err))
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Fingerprint identifies the exploration a node is configured for. Both
// sides must agree on every field: a mismatched worker would replay a
// different program or a different interleaving space, silently corrupting
// the merged report, so the handshake (and checkpoint resume) refuse it.
type Fingerprint struct {
	Workload          string         `json:"workload"`
	Procs             int            `json:"procs"`
	Clock             core.ClockMode `json:"clock"`
	DualClock         bool           `json:"dual_clock,omitempty"`
	Transport         core.Transport `json:"transport"`
	MixingBound       int            `json:"mixing_bound"`
	AutoLoopThreshold int            `json:"auto_loop_threshold,omitempty"`

	// Schedule-sampling parameters. A mismatch in any of them means the two
	// sides would derive different choice-point spaces or different seeded
	// schedule sets from the same trace.
	ChoicePoints   bool   `json:"choice_points,omitempty"`
	SampleStrategy string `json:"sample_strategy,omitempty"` // "" = exhaustive
	Samples        int    `json:"samples,omitempty"`
	SampleSeed     uint64 `json:"sample_seed,omitempty"`
	SampleDepth    int    `json:"sample_depth,omitempty"`
}

// FingerprintFor derives the fingerprint of an exploration: the workload
// name plus every ExplorerConfig field that shapes the interleaving space.
// Coordinator and workers build theirs through this one function so the two
// cannot drift. Sampler parameters are read back from the config's sampler
// when it is the standard internal/sample implementation.
func FingerprintFor(workload string, cfg *core.ExplorerConfig) Fingerprint {
	f := Fingerprint{
		Workload:          workload,
		Procs:             cfg.Procs,
		Clock:             cfg.Clock,
		DualClock:         cfg.DualClock,
		Transport:         cfg.Transport,
		MixingBound:       cfg.MixingBound,
		AutoLoopThreshold: cfg.AutoLoopThreshold,
		ChoicePoints:      cfg.ChoicePoints,
		SampleDepth:       cfg.SampleDepth,
	}
	if s, ok := cfg.Sampler.(*sample.Sampler); ok {
		sc := s.Config()
		f.SampleStrategy = string(sc.Strategy)
		f.Samples = sc.Samples
		f.SampleSeed = sc.Seed
	}
	return f
}

// ExplorerConfig is the inverse of FingerprintFor: the ExplorerConfig fields
// that shape the interleaving space, without a program. A sampling
// fingerprint gets its seeded sampler rebuilt, so every node derives the
// identical schedule set and checkpoint sampler signatures match.
func (f Fingerprint) ExplorerConfig() core.ExplorerConfig {
	cfg := core.ExplorerConfig{
		Procs:             f.Procs,
		Clock:             f.Clock,
		DualClock:         f.DualClock,
		Transport:         f.Transport,
		MixingBound:       f.MixingBound,
		AutoLoopThreshold: f.AutoLoopThreshold,
		ChoicePoints:      f.ChoicePoints,
		SampleDepth:       f.SampleDepth,
	}
	if f.SampleStrategy != "" {
		cfg.Sampler = sample.New(sample.Config{
			Strategy: sample.Strategy(f.SampleStrategy),
			Samples:  f.Samples,
			Seed:     f.SampleSeed,
			Procs:    f.Procs,
		})
	}
	return cfg
}

// Check compares a worker's fingerprint against the coordinator's, returning
// a field-naming error on the first mismatch.
func (f Fingerprint) Check(worker Fingerprint) error {
	switch {
	case f.Workload != worker.Workload:
		return fmt.Errorf("dcoord: workload mismatch: coordinator %q, worker %q", f.Workload, worker.Workload)
	case f.Procs != worker.Procs:
		return fmt.Errorf("dcoord: procs mismatch: coordinator %d, worker %d", f.Procs, worker.Procs)
	case f.Clock != worker.Clock:
		return fmt.Errorf("dcoord: clock mismatch: coordinator %v, worker %v", f.Clock, worker.Clock)
	case f.DualClock != worker.DualClock:
		return fmt.Errorf("dcoord: dual-clock mismatch: coordinator %v, worker %v", f.DualClock, worker.DualClock)
	case f.Transport != worker.Transport:
		return fmt.Errorf("dcoord: transport mismatch: coordinator %v, worker %v", f.Transport, worker.Transport)
	case f.MixingBound != worker.MixingBound:
		return fmt.Errorf("dcoord: mixing bound mismatch: coordinator k=%d, worker k=%d", f.MixingBound, worker.MixingBound)
	case f.AutoLoopThreshold != worker.AutoLoopThreshold:
		return fmt.Errorf("dcoord: autoloop mismatch: coordinator %d, worker %d", f.AutoLoopThreshold, worker.AutoLoopThreshold)
	case f.ChoicePoints != worker.ChoicePoints:
		return fmt.Errorf("dcoord: choice-points mismatch: coordinator %v, worker %v", f.ChoicePoints, worker.ChoicePoints)
	case f.SampleStrategy != worker.SampleStrategy:
		return fmt.Errorf("dcoord: sample strategy mismatch: coordinator %q, worker %q", f.SampleStrategy, worker.SampleStrategy)
	case f.Samples != worker.Samples:
		return fmt.Errorf("dcoord: sample budget mismatch: coordinator %d, worker %d", f.Samples, worker.Samples)
	case f.SampleSeed != worker.SampleSeed:
		return fmt.Errorf("dcoord: sample seed mismatch: coordinator %d, worker %d", f.SampleSeed, worker.SampleSeed)
	case f.SampleDepth != worker.SampleDepth:
		return fmt.Errorf("dcoord: sample depth mismatch: coordinator %d, worker %d", f.SampleDepth, worker.SampleDepth)
	}
	return nil
}

// writeFrame serializes one frame as a 4-byte big-endian length prefix
// followed by the JSON payload, in one Write (one syscall on a TCP
// connection), and reports the bytes written. Callers serialize concurrent
// writers.
func writeFrame(w io.Writer, fr *frame) (int, error) {
	body, err := json.Marshal(fr)
	if err != nil {
		return 0, fmt.Errorf("dcoord: encoding %s frame: %w", fr.Type, err)
	}
	if len(body) > maxFrameSize {
		return 0, fmt.Errorf("dcoord: %s frame too large (%d bytes)", fr.Type, len(body))
	}
	buf := make([]byte, 4, 4+len(body))
	binary.BigEndian.PutUint32(buf, uint32(len(body)))
	return w.Write(append(buf, body...))
}

// readFrame reads one length-prefixed JSON frame of at most limit payload
// bytes and reports the bytes consumed. Read loops hand it one bufio.Reader
// per connection, so header and payload usually cost one syscall together.
func readFrame(r io.Reader, limit int) (*frame, int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if int64(n) > int64(limit) {
		return nil, 0, fmt.Errorf("dcoord: frame of %d bytes exceeds limit %d", n, limit)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	fr := &frame{}
	if err := json.Unmarshal(body, fr); err != nil {
		return nil, 0, fmt.Errorf("dcoord: decoding frame: %w", err)
	}
	return fr, 4 + len(body), nil
}

// rootKey is the key of the initial self-discovery task.
var rootKey = taskKey(&core.SubtreeTask{})

// taskKey is the stable identity of a subtree task: its decision-prefix
// signature. Each task in one exploration has a distinct prefix (the serial
// explorer's per-interleaving signatures are distinct by construction), so
// the key is unique and survives requeue/redelivery.
//
// Walk-step tasks (schedule sampling) carry a walk/step suffix: a walk may
// land on a decision vector an exhaustive child of the same exploration
// already completed, and keying by the vector alone would make the done-set
// dedup swallow the step — silently killing the walk chain. The suffix keeps
// task identity (lease/requeue/dedup) distinct from schedule identity; the
// sampled distinct-vector count uses the bare Decisions signature instead
// (Decisions.String never contains '|', so the suffix cannot collide with an
// exhaustive key).
func taskKey(t *core.SubtreeTask) string {
	k := t.Decisions.String()
	if s := t.Sample; s != nil {
		k = fmt.Sprintf("%s|walk=%d,step=%d", k, s.Walk, s.Step)
	}
	return k
}
