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
// a plain TCP connection (stdlib only), with a handshake in which a pinned
// worker states the exploration it was built for as a JobSpec, and is never
// given work whose workload or exploration parameters differ from it.
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

// protoVersion guards the frame format; a hello with any other version is
// rejected at the handshake, both versions named. Version 6: every exploration
// is an announced job (a one-shot coordinator's too) and every task and result
// frame is tagged with it, a pinned hello states a JobSpec, a lease is a set of
// subtrees with a replay budget and its result one report delta. Versions 1–5
// each lack one of these, so a mixed pair would drop or misroute frames
// silently and is refused instead (CHANGES.md has the history).
const protoVersion = 6

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
	// slot count, and either the spec it is pinned to or the any-workload
	// capability.
	msgHello = "hello"
	// msgWelcome accepts a hello; carries the lease TTL the worker must
	// heartbeat within.
	msgWelcome = "welcome"
	// msgReject refuses a hello (protocol or, on a one-job server, spec
	// mismatch). The worker must not retry: the mismatch is permanent.
	msgReject = "reject"
	// msgTask grants the worker leases, one per free slot.
	msgTask = "task"
	// msgResult returns one lease: what was explored and what was not.
	msgResult = "result"
	// msgHeartbeat renews all of the worker's leases.
	msgHeartbeat = "heartbeat"
	// msgDone tells the worker the server is closing — a one-job server's
	// exploration is over, a job-queue service is shutting down; it
	// disconnects and exits cleanly.
	msgDone = "done"
	// msgJob announces the active job — every exploration is one, a one-shot
	// coordinator's included: every task frame that follows belongs to it
	// until the next job or jobdone frame. The spec carries everything a
	// worker needs to build the program (an any-workload worker constructs its
	// replay context from it; a pinned worker checks it matches).
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

	// hello. A pinned worker (it runs one caller-supplied program) sends the
	// Spec it was built for — exploration parameters plus the workload
	// parameters baked into its program, Scale/Iters 0 meaning unknown; an
	// any-workload worker sends AnyWorkload instead and builds programs per
	// job from announced specs.
	Proto       int    `json:"proto,omitempty"`
	Worker      string `json:"worker,omitempty"`
	Slots       int    `json:"slots,omitempty"`
	AnyWorkload bool   `json:"any_workload,omitempty"`

	// reject
	Reason string `json:"reason,omitempty"`

	// welcome
	LeaseTTLMillis int64 `json:"lease_ttl_ms,omitempty"`

	// job / jobdone / task / result: the job the frame belongs to. Spec is
	// the announced job's on a job frame (and the worker's own on a hello).
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

// JobSpec is the complete, self-contained description of one exploration,
// and the one identity every layer carries and compares: everything a worker
// needs to rebuild the program (workload name plus the parameters that shape
// it), the Space that fixes its interleavings, and the job-level bounds. It is
// the REST body and the WAL record of the job queue, what the msgJob frame
// announces, what a pinned worker's hello states, and — hashed — the dedup
// key. Space is embedded, so its fields serialize flat, between iters and
// max_interleavings, as they did when they were declared here.
type JobSpec struct {
	// Workload names the registered program both sides build.
	Workload string `json:"workload"`
	// Procs is the MPI world size.
	Procs int `json:"procs"`
	// Scale divides traffic volumes for the proxy workloads that support it.
	Scale int `json:"scale,omitempty"`
	// Iters is the outer iteration count for the proxies that support it.
	Iters int `json:"iters,omitempty"`

	dexplore.Space

	// Job-level bounds: the coordinator's, never part of a worker's identity
	// or of its replay configuration.
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

// maxProcs is the largest world a job spec may ask for: 64× the paper's
// largest run of 1 024 ranks. A worker sizes its runtime storage by procs
// before it runs anything, so an unbounded value ends the worker process,
// not the job. Local verify.Run takes no spec and stays unbounded.
const maxProcs = 1 << 16

// Validate rejects a spec no worker could run. A spec is outside input (a
// REST body, a hello frame): every field is checked against its range, not
// only the ones a well-meaning client gets wrong.
func (s *JobSpec) Validate() error {
	switch {
	case s.Workload == "":
		return fmt.Errorf("dcoord: job spec without a workload name")
	case s.Procs > maxProcs:
		return fmt.Errorf("dcoord: job spec procs must be <= %d, got %d", maxProcs, s.Procs)
	case s.Clock != core.Lamport && s.Clock != core.VectorClock:
		return fmt.Errorf("dcoord: job spec clock %d is neither Lamport (%d) nor vector (%d)", s.Clock, core.Lamport, core.VectorClock)
	case s.Transport != core.Separate && s.Transport != core.Inband:
		return fmt.Errorf("dcoord: job spec transport %d is neither separate (%d) nor inband (%d)", s.Transport, core.Separate, core.Inband)
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"procs", s.Procs, 1}, {"scale", s.Scale, 0}, {"iters", s.Iters, 0},
		{"mixing_bound", s.MixingBound, core.Unbounded}, {"auto_loop_threshold", s.AutoLoopThreshold, 0},
		{"samples", s.Samples, 0}, {"sample_depth", s.SampleDepth, 0}, {"max_interleavings", s.MaxInterleavings, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("dcoord: job spec %s must be >= %d, got %d", f.name, f.min, f.v)
		}
	}
	if s.SampleStrategy != "" {
		if _, err := sample.ParseStrategy(s.SampleStrategy); err != nil {
			return err
		}
	}
	return nil
}

// FingerprintFor describes the exploration an explorer configuration runs as
// a spec: the workload name, the world size, the Space and the bounds.
// Coordinator and pinned workers build theirs through this one function, so
// the two cannot drift; the caller adds the workload parameters it knows.
func FingerprintFor(workload string, cfg *core.ExplorerConfig) JobSpec {
	return JobSpec{
		Workload:         workload,
		Procs:            cfg.Procs,
		Space:            dexplore.SpaceOf(cfg),
		MaxInterleavings: cfg.MaxInterleavings,
		StopOnFirstError: cfg.StopOnFirstError,
	}
}

// ExplorerConfig is the inverse of FingerprintFor: the replay configuration
// of the spec's exploration, without a program (the worker's factory attaches
// it; the coordinator never replays). The job-level bounds stay off it: they
// are the coordinator's to enforce, through lease budgets and its drain, and a
// worker honouring StopOnFirstError would change what a draining lease counts.
func (s *JobSpec) ExplorerConfig() core.ExplorerConfig {
	cfg := core.ExplorerConfig{Procs: s.Procs}
	s.Space.Apply(&cfg)
	return cfg
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

// Check reports whether a worker pinned to the exploration w describes can
// replay job s, naming the first field that says no. Both sides must agree on
// the program — workload, world size, and the workload parameters unless the
// worker's are 0, unknown (library callers, who must themselves ensure every
// node builds the identical program) — and on every field of the Space: a
// mismatched worker would replay a different program or a different
// interleaving space, silently corrupting the merged report. The job-level
// bounds are not compared: they are the coordinator's alone.
func (s *JobSpec) Check(w *JobSpec) error {
	n := *s
	n.Normalize()
	var err error
	switch {
	case n.Workload != w.Workload:
		err = dexplore.Mismatch("workload", "coordinator", n.Workload, "worker", w.Workload)
	case n.Procs != w.Procs:
		err = dexplore.Mismatch("procs", "coordinator", n.Procs, "worker", w.Procs)
	case w.Scale != 0 && w.Scale != n.Scale:
		err = dexplore.Mismatch("scale", "coordinator", n.Scale, "worker", w.Scale)
	case w.Iters != 0 && w.Iters != n.Iters:
		err = dexplore.Mismatch("iters", "coordinator", n.Iters, "worker", w.Iters)
	default:
		err = n.Space.Diff(w.Space, "coordinator", "worker")
	}
	if err != nil {
		return fmt.Errorf("dcoord: %w", err)
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
