package mpi

// This file defines the tool (profiling) interface: the simulator's analogue
// of PMPI. Every public MPI call on a Proc invokes the corresponding hooks
// around its "PMPI-level" implementation. Hooks may rewrite the source of
// wildcard receives and probes (how DAMPI and ISP enforce alternate
// matches). Tools issue their own traffic through Proc.PMPI(), which bypasses
// the hooks — exactly like calling PMPI_* from inside a profiling wrapper.
//
// The hook contract: a world runs its ranks one at a time (see World), and a
// hook runs on its rank's turn. A hook may therefore wait for another rank
// only through PMPI or through Proc.Park — the two ways of waiting that hand
// the turn on. A hook that waits for another rank on a Go channel, mutex or
// WaitGroup keeps the only turn and hangs the world. Waiting for something
// that is not a rank (the ISP baseline's round trip to its scheduler
// goroutine) is fine: it merely stops the world for as long as it takes.

// SendOp describes a send call entering the tool layer.
type SendOp struct {
	Dest int
	Tag  int
	Data []byte
	Comm Comm
	Sync bool // synchronous (Ssend-style) send
}

// RecvOp describes a receive call entering the tool layer. Tools may rewrite
// Src (e.g. to determinize a wildcard receive during a guided replay);
// WasAnySource preserves what the application originally asked for.
type RecvOp struct {
	Src          int
	Tag          int
	Comm         Comm
	WasAnySource bool
}

// ProbeOp describes a probe call entering the tool layer. As with RecvOp,
// Src is rewritable and WasAnySource records the original call.
type ProbeOp struct {
	Src          int
	Tag          int
	Comm         Comm
	Blocking     bool
	WasAnySource bool
	// SuppressFound, set by a PreProbe hook on a nonblocking probe, forces
	// the call to report found=false to the application even when a matching
	// message is queued (the message stays queued). This is how a guided
	// replay enforces a recorded not-found outcome of an Iprobe choice point;
	// blocking probes ignore it.
	SuppressFound bool
}

// WaitanyOp describes a Waitany/Testany call entering the tool layer (and so
// each call of Waitsome, which is built from them). Tools may set ForceIndex
// to determinize which completion the call observes (how a guided replay
// enforces a recorded Waitany completion index): the call then waits on that
// specific request instead of taking the first available completion. A
// ForceIndex naming a nil or already-consumed request is ignored (the replay
// records a mismatch through the usual epoch machinery instead of failing).
type WaitanyOp struct {
	Reqs       []*Request
	Blocking   bool // Waitany (true) vs Testany (false)
	ForceIndex int  // -1: unforced
}

// CollKind identifies a collective operation.
type CollKind int

// Collective kinds.
const (
	CollBarrier CollKind = iota
	CollBcast
	CollReduce
	CollAllreduce
	CollGather
	CollAllgather
	CollScatter
	CollAlltoall
	CollScan
	CollReduceScatter
	CollCommDup
	CollCommSplit
	CollCommFree
)

var collNames = [...]string{
	"Barrier", "Bcast", "Reduce", "Allreduce", "Gather", "Allgather",
	"Scatter", "Alltoall", "Scan", "ReduceScatter", "CommDup", "CommSplit",
	"CommFree",
}

func (k CollKind) String() string {
	if int(k) < len(collNames) {
		return collNames[k]
	}
	return "CollKind(?)"
}

// CollOp describes a collective call entering the tool layer.
type CollOp struct {
	Kind CollKind
	Comm Comm
	Root int // meaningful for rooted collectives; 0 otherwise
}

// Hooks is the tool layer: a world has one (Config.Hooks; a world without
// one gets noHooks). All fields are optional; nil fields are skipped. Every
// hook but Idle runs on the calling rank's goroutine, on that rank's turn.
// What a tool would only count or track per rank — the Table I operation
// mix, leaked communicators and requests — the world already keeps
// (World.Ops, CommLeaks, RequestLeaks).
//
// Lifetimes: the SendOp/RecvOp/ProbeOp/WaitanyOp descriptors and the
// PreWait slice are per-rank scratch owned by the runtime, valid until the
// hooked MPI call returns; a hook that keeps one must copy it. The request
// of a blocking Send/Ssend/Recv is recycled (Request.Free) once its Complete
// hook has returned and may reappear under a new identity; requests of the
// nonblocking calls belong to the application and are never recycled.
type Hooks struct {
	// Init runs on each rank before its program starts: per-rank tool set-up.
	// A tool that wants the instrumented run to take the bare program's
	// schedule enters no collective here (a private matching context is
	// PMPI.Tool, not a CommDup).
	Init func(p *Proc)

	PreSend  func(p *Proc, op *SendOp)
	PostSend func(p *Proc, op *SendOp, req *Request)

	PreRecv  func(p *Proc, op *RecvOp)
	PostRecv func(p *Proc, op *RecvOp, req *Request)

	// PreWait fires when the application enters any of the Wait/Test family,
	// with the requests being waited on.
	PreWait func(p *Proc, reqs []*Request)
	// Complete fires exactly once per request whose completion is observed
	// by a Wait/Test-family call, on the observing rank.
	Complete func(p *Proc, req *Request, st Status)

	// PreWaitany/PostWaitany bracket the multi-request completion choice of
	// Waitany and Testany (and therefore Waitsome, which is built from them).
	// PostWaitany fires only for a positive outcome (some completion was
	// observed): a Testany that found nothing ready is timing noise, not a
	// decision, and a Waitany with nothing to wait for returns -1 without
	// one. PostWaitany runs after the Complete hook for the consumed request,
	// with the index the call returned.
	PreWaitany  func(p *Proc, op *WaitanyOp)
	PostWaitany func(p *Proc, op *WaitanyOp, idx int, st Status)

	PreProbe  func(p *Proc, op *ProbeOp)
	PostProbe func(p *Proc, op *ProbeOp, st Status, found bool)

	PreColl  func(p *Proc, op *CollOp)
	PostColl func(p *Proc, op *CollOp)
	// CollClockIn supplies this rank's logical-clock contribution to a
	// collective; CollClockOut delivers the combined clock back (per the
	// kind's combine rule: see the package comment on collectives). A
	// one-element slice carries a Lamport clock; an N-element slice a vector
	// clock.
	CollClockIn  func(p *Proc, op *CollOp) []uint64
	CollClockOut func(p *Proc, op *CollOp, clock []uint64)

	// PostCommCreate fires after CommDup/CommSplit hands this rank a new
	// communicator (not fired for ranks excluded from a split).
	PostCommCreate func(p *Proc, parent, created Comm)
	// PostCommFree fires after CommFree.
	PostCommFree func(p *Proc, c Comm)

	// Pcontrol receives MPI_Pcontrol calls (DAMPI's loop-iteration
	// abstraction regions are marked this way).
	Pcontrol func(p *Proc, level int, arg string)

	// AtFinalize runs when the rank's program returns, before the rank is
	// marked finished.
	AtFinalize func(p *Proc)

	// Idle runs on the goroutine of World.Run when no rank is runnable and
	// not all have finished, before the runtime declares a deadlock: a tool
	// that holds ranks with Proc.Park decides here which to release
	// (World.Unpark), or fails the world with its own report
	// (World.AbortWith). If no rank is runnable when it returns, the runtime
	// reports the deadlock itself.
	Idle func(w *World)
}

// noHooks is the tool layer of a world configured without one: every hook
// nil, so a hooked call tests only the field of the hook it would run.
var noHooks Hooks
