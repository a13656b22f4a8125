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
// loop forever). A result merges only while its lease is held; one that
// comes back after its lease was lost is dropped, since its subtrees are
// waiting again. Every subtree is thus in exactly one place — the frontier,
// one held lease, or merged — and counted once, so killing a worker
// mid-exploration still yields the identical report.
//
// The wire protocol is deliberately boring: length-prefixed JSON frames over
// a plain TCP connection (stdlib only), with a handshake in which a pinned
// worker states the exploration it was built for as a JobSpec, and is never
// given work whose workload or exploration parameters differ from it. A
// lease's subtrees travel as one table of prefixes, and a result has one
// form: its leftovers are a table that hangs each from the lease root it was
// found under.
package dcoord

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

	"dampi/internal/core"
	"dampi/internal/dexplore"
	"dampi/internal/sample"
)

// protoVersion guards the frame format; a hello with any other version is
// rejected at the handshake, both versions named. Version 9: a task frame's
// subtrees and a result's leftovers travel in the table form
// (core.TableWriter), each shared prefix once, and a leftover hangs from the
// lease root it was found under instead of repeating that root's prefix.
// Version 8: a task frame carries no keys and a result echoes none — a result
// is known by its lease id and connection alone, and merged only while that
// lease is held — and a heartbeat names no worker. Version 7: a result names
// the lease's roots its worker never started by count (WireResult.Untouched)
// instead of handing them back in its delta's frontier. Version 6: every
// exploration is an announced job (a one-shot coordinator's too) and every
// task and result frame is tagged with it, a pinned hello states a JobSpec, a
// lease is a set of subtrees with a replay budget and its result one report
// delta. Versions 1–8 each lack one of these, so a mixed pair would drop or
// misroute frames silently — a v8 worker would read a v9 task frame as leases
// without subtrees, a v7 coordinator fail every result of a v8 worker for the
// keys it does not echo — and is refused instead (CHANGES.md has the history).
const protoVersion = 9

// maxFrameSize bounds a single frame (a lease's leftover frontier or the root
// trace can be large, but anything beyond this is a corrupt stream).
const maxFrameSize = 64 << 20

// maxHelloSize bounds the one frame read from a peer that has not identified
// itself yet: a hello is a few hundred bytes, and a frame reader grows its
// buffer to what the 4-byte header announces.
const maxHelloSize = 64 << 10

// maxKeptFrame bounds the buffers a connection keeps from one frame to the
// next: one that grew past it for a large frame (the root's trace, a wide
// frontier) is dropped after that frame instead of staying pinned.
const maxKeptFrame = 1 << 20

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
	// msgHeartbeat renews all of the leases held by the worker whose
	// connection it arrives on.
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
// single decode with no two-phase dispatch. On the wire its leases' subtrees
// and its result's leftovers are tables (wireFrame); its own members are what
// the rest of the package reads.
//
// A frame is decoded from a body buffer its connection's frameReader reuses
// for the next frame, so nothing decoded may keep a sub-slice of its input:
// json.Unmarshal copies strings, and the types in a frame that decode
// themselves (core.Decisions, core.TaskTable, core.InterleavingResult,
// dexplore.Checkpoint) build new values. A member added here must do the same.
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
// number of replays the worker may spend on them. A task frame writes it as a
// wireLease and its subtrees in the frame's table.
type wireTask struct {
	Lease  uint64
	Tasks  []*core.SubtreeTask
	Budget int // 0 = unbounded

	// table is the task frame's table Tasks were cut from, whose rows a
	// worker checks before it replays any (replayable).
	table *core.TaskTable
}

// WireResult returns one lease.
type WireResult struct {
	// Lease echoes the task frame's. The coordinator merges the result only
	// while it holds that lease for the connection the result arrives on.
	Lease uint64 `json:"lease"`

	// Fatal, if non-empty, reports a replay-harness failure (not a program
	// error): the exploration must abort, matching the single-process
	// engines' error return.
	Fatal string `json:"fatal,omitempty"`

	// Untouched is how many of the lease's roots, from the first, the worker
	// never started. A worker pops its roots from the end of the lease, so the
	// ones it did not start are always a prefix; the coordinator holds them
	// already and puts them back without any crossing the wire. Every other
	// root is done.
	Untouched int `json:"untouched,omitempty"`

	// Delta is everything the lease's replays add to the exploration, in the
	// checkpoint codec: the report of the replays run (a failing or sampled
	// one with its reproducer, the root with its trace) and, as its frontier,
	// the expansions not reached: subtrees below the roots it started, each
	// listed once, never a leased root. A result frame writes the frontier as
	// a table hanging from the lease's roots.
	Delta *dexplore.Checkpoint `json:"delta,omitempty"`

	// roots are the lease's roots, as the worker holds them: the leftovers'
	// chains pass through them, and a result frame writes each leftover as
	// hanging from its root.
	roots []*core.SubtreeTask
	// bad is why the delta as read did not decode: the result's fault, which
	// fails the job naming the worker and the lease, not the frame's, which
	// would only drop the connection.
	bad error
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

// frameFields is frame without its methods, for the wire forms to embed.
type frameFields frame

// wireFrame is a frame as protocol 9 writes it: a task frame's leases as
// counts and all their subtrees in one table, and a result's delta with its
// frontier as a table hanging from the lease's roots (dexplore.TableForm).
type wireFrame struct {
	*frameFields
	Tasks  []wireLease      `json:"tasks,omitempty"`
	Result *wireResult      `json:"result,omitempty"`
	Table  *json.RawMessage `json:"table,omitempty"` // a pointer: a slice value would be boxed to be encoded
}

// wireLease is a lease of a task frame: its subtrees are the next Count
// tasks of the frame's table.
type wireLease struct {
	Lease  uint64 `json:"lease"`
	Count  int    `json:"count"`
	Budget int    `json:"budget,omitempty"`
}

// wireResult is a result as protocol 9 writes it.
type wireResult struct {
	*WireResult
	Delta *dexplore.TableForm `json:"delta,omitempty"`
}

// frameIn is a frame as protocol 9 reads it; the result's delta reads its
// own table (dexplore.Checkpoint). Type is read outside the embedded
// members: encoding/json allocates for the path to a member it reaches
// through one, and a heartbeat is all type.
type frameIn struct {
	Type string `json:"type"`
	*frameFields
	Tasks  []wireLease     `json:"tasks,omitempty"`
	Table  *core.TaskTable `json:"table,omitempty"`
	Result *resultIn       `json:"result,omitempty"`
}

// resultIn is a result as read: a delta that does not decode is kept as the
// result's fault (WireResult.bad), and the members around it still read.
type resultIn struct {
	resultFields
	Delta *deltaIn `json:"delta"`
}

// resultFields is WireResult, its Delta shadowed in resultIn.
type resultFields WireResult

// deltaIn is a result's delta as read, and why it did not decode.
type deltaIn struct {
	dexplore.Checkpoint
	err error
}

// UnmarshalJSON implements json.Unmarshaler; it refuses nothing.
func (d *deltaIn) UnmarshalJSON(b []byte) error {
	d.err = d.Checkpoint.UnmarshalJSON(b)
	return nil
}

// MarshalJSON implements json.Marshaler: a frame's JSON is its wire form, the
// bytes a frameWriter sends.
func (f *frame) MarshalJSON() ([]byte, error) {
	var fw frameWriter
	if err := fw.encode(f); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(fw.buf.Bytes(), []byte{'\n'}), nil
}

// frameWriter is the writing side of one connection: it encodes every frame
// into one kept buffer, its tables through one kept table writer, so a warm
// write copies the frame once, into that buffer, and a warm heartbeat
// allocates nothing. Its zero value is ready; its owner serializes writes.
type frameWriter struct {
	buf bytes.Buffer
	enc *json.Encoder // encodes into buf

	tw     core.TableWriter
	table  json.RawMessage
	tasks  []*core.SubtreeTask // a task frame's subtrees, lease after lease
	leases []wireLease
	wire   wireFrame
	res    wireResult
	delta  dexplore.TableForm
}

// encode appends fr's wire form to buf, newline-terminated.
func (fw *frameWriter) encode(fr *frame) error {
	if fw.enc == nil {
		fw.enc = json.NewEncoder(&fw.buf)
	}
	fw.wire = wireFrame{frameFields: (*frameFields)(fr)}
	if len(fr.Tasks) > 0 {
		for _, wt := range fr.Tasks {
			fw.leases = append(fw.leases, wireLease{Lease: wt.Lease, Count: len(wt.Tasks), Budget: wt.Budget})
			fw.tasks = append(fw.tasks, wt.Tasks...)
		}
		fw.table = fw.tw.Append(fw.table[:0], fw.tasks, nil)
		fw.wire.Tasks, fw.wire.Table = fw.leases, &fw.table
	}
	if r := fr.Result; r != nil {
		fw.res = wireResult{WireResult: r}
		if r.Delta != nil {
			fw.table = fw.tw.Append(fw.table[:0], r.Delta.Frontier, r.roots)
			fw.delta = dexplore.TableForm{Checkpoint: r.Delta, Frontier: &fw.table}
			fw.res.Delta = &fw.delta
		}
		fw.wire.Result = &fw.res
	}
	err := fw.enc.Encode(&fw.wire)
	// Keep the storage, not the frame's values.
	clear(fw.tasks)
	fw.tasks, fw.leases = fw.tasks[:0], fw.leases[:0]
	fw.wire, fw.res, fw.delta = wireFrame{}, wireResult{}, dexplore.TableForm{}
	if cap(fw.table) > maxKeptFrame {
		fw.table = nil
	}
	return err
}

// write sends one frame to w as a 4-byte big-endian length prefix followed
// by the JSON payload (the bytes json.Marshal gives), in one Write — one
// syscall on a TCP connection — and reports the bytes written.
func (fw *frameWriter) write(w io.Writer, fr *frame) (int, error) {
	fw.buf.Reset()
	fw.buf.Write([]byte{0, 0, 0, 0}) // the length, patched once it is known
	err := fw.encode(fr)
	out := fw.buf.Bytes()
	out = out[:len(out)-1] // Encode ends the value with a newline; a frame does not
	sent := 0
	switch n := len(out) - 4; {
	case err != nil:
		err = fmt.Errorf("dcoord: encoding %s frame: %w", fr.Type, err)
	case n > maxFrameSize:
		err = fmt.Errorf("dcoord: %s frame too large (%d bytes)", fr.Type, n)
	default:
		binary.BigEndian.PutUint32(out, uint32(n))
		sent, err = w.Write(out)
	}
	if fw.buf.Cap() > maxKeptFrame {
		fw.buf = bytes.Buffer{}
	}
	return sent, err
}

// frameReader is the reading side of one connection: it reads every frame
// body into one kept buffer (see frame for why that is safe). Its zero value
// is ready; one goroutine at a time reads through it.
type frameReader struct {
	hdr  [4]byte
	body []byte
	in   frameIn
}

// read reads one length-prefixed JSON frame of at most limit payload bytes
// from r and reports the bytes consumed. A header over the limit is refused
// before the buffer grows. Read loops hand it one bufio.Reader per
// connection, so header and payload usually cost one syscall together.
func (fr *frameReader) read(r io.Reader, limit int) (*frame, int, error) {
	if _, err := io.ReadFull(r, fr.hdr[:]); err != nil {
		return nil, 0, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if int64(n) > int64(limit) {
		return nil, 0, fmt.Errorf("dcoord: frame of %d bytes exceeds limit %d", n, limit)
	}
	body := slices.Grow(fr.body[:0], int(n))[:n]
	fr.body = body[:0]
	if cap(body) > maxKeptFrame {
		fr.body = nil
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, 0, err
	}
	f := &frame{}
	fr.in = frameIn{frameFields: (*frameFields)(f)}
	err := json.Unmarshal(body, &fr.in)
	if err == nil {
		f.Type, f.Result = fr.in.Type, fr.in.result()
		err = fr.in.leases(f)
	}
	fr.in = frameIn{}
	if err != nil {
		return nil, 0, fmt.Errorf("dcoord: decoding frame: %w", err)
	}
	return f, 4 + len(body), nil
}

// result is the frame's result, its delta's decode error kept as its fault.
func (in *frameIn) result() *WireResult {
	r := in.Result
	if r == nil {
		return nil
	}
	res := (*WireResult)(&r.resultFields)
	if d := r.Delta; d != nil {
		res.Delta, res.bad = &d.Checkpoint, d.err
	}
	return res
}

// leases cuts the frame's table into its leases, each taking the next of
// its subtrees as it counts them; a table must be taken whole.
func (in *frameIn) leases(f *frame) error {
	var tasks []*core.SubtreeTask
	if in.Table != nil {
		if in.Table.Roots() > 0 {
			return errors.New("a task frame's table hangs from lease roots")
		}
		tasks = in.Table.Tasks
	}
	if len(in.Tasks) > 0 {
		f.Tasks = make([]wireTask, len(in.Tasks))
	}
	for i, l := range in.Tasks {
		if l.Count < 0 || l.Count > len(tasks) {
			return fmt.Errorf("lease %d counts %d subtrees, the table has %d left", l.Lease, l.Count, len(tasks))
		}
		f.Tasks[i] = wireTask{Lease: l.Lease, Tasks: tasks[:l.Count:l.Count], Budget: l.Budget, table: in.Table}
		tasks = tasks[l.Count:]
	}
	if len(tasks) > 0 {
		return fmt.Errorf("%d subtrees of the table are in no lease", len(tasks))
	}
	return nil
}
