package mpi

import "fmt"

// Request is a nonblocking-operation handle, completed by the Wait/Test
// family. Tools may stash per-request state in ToolData (e.g. DAMPI hangs
// piggyback bookkeeping off it).
//
// The rank holding the turn completes a request (World.match, Cancel) by
// writing data, status and done; the owner reads them on a later turn of its
// own. Once the owner has consumed the completion nothing else in the world
// holds a reference to the request — which is what makes Free safe.
type Request struct {
	id   uint64
	kind RequestKind
	proc *Proc
	comm Comm
	peer int // dest for sends; posted source for receives (may be AnySource)
	tag  int // posted tag (may be AnyTag for receives)

	data      []byte // payload: outgoing for sends, received for receives
	done      bool
	consumed  bool // a Wait/Test observed the completion
	cancelled bool
	escaped   bool // handed to the application by Isend/Irecv: never recycled
	status    Status

	// ToolData is scratch space for tool layers; the runtime never touches
	// it. It is safe to access from the owning rank only.
	ToolData any
}

// Kind reports whether this is a send or receive request.
func (r *Request) Kind() RequestKind { return r.kind }

// Comm returns the communicator the request was posted on.
func (r *Request) Comm() Comm { return r.comm }

// Peer returns the destination rank (sends) or the posted source rank
// (receives; AnySource if posted wildcard).
func (r *Request) Peer() int { return r.peer }

// Tag returns the posted tag (AnyTag for wildcard-tag receives).
func (r *Request) Tag() int { return r.tag }

// Data returns the payload. For receives it is valid only after a successful
// Wait/Test observed completion.
func (r *Request) Data() []byte { return r.data }

// ReplaceData overwrites a completed receive's payload and adjusts the
// status count. It exists for tool layers that pack auxiliary data into the
// payload (e.g. in-band piggyback clocks) and must strip it before the
// application looks: call it from a Complete hook only.
func (r *Request) ReplaceData(d []byte) {
	r.data = d
	r.status.Count = len(d)
}

// Release returns a consumed receive's payload buffer to the runtime's reuse
// pool and clears Data. Call it only from the receiving rank, only after
// Wait/Test consumed the completion, and only when nothing will touch the
// payload again — including the sender (the buffer is shared with the
// sender's request, so Release is for protocol traffic whose sender never
// re-reads its payload, like piggyback clock messages). Non-receive or
// unconsumed requests are left untouched.
func (r *Request) Release() {
	if r.kind != KindRecv || !r.consumed || r.data == nil {
		return
	}
	r.proc.world.pools.putBuf(r.data)
	r.data = nil
}

// Free returns the request to its rank's reuse pool — the MPI_Request_free
// analogue for requests that never reach the application: the implicit
// request inside a blocking Send/Ssend/Recv and a tool layer's own PMPI
// traffic. Call it only from the owning rank, and only when nothing will
// touch the request again: the next Isend/Irecv on the rank may hand out the
// same object under a new identity. It does not release the payload (see
// Release). Requests whose completion has not been consumed by a Wait/Test,
// requests the application holds (returned by Proc.Isend/Issend/Irecv) and
// requests already freed are left untouched, so a stray Free is harmless.
func (r *Request) Free() {
	if !r.consumed || r.escaped {
		return
	}
	rp := r.proc.pool
	*r = Request{}
	if len(rp.reqs) < poolRankCap {
		rp.reqs = append(rp.reqs, r)
	}
}

// Status returns the completion status; valid only after Wait/Test.
func (r *Request) Status() Status { return r.status }

// CompletedPending reports whether the request has completed but no
// Wait/Test has consumed the completion yet — i.e. it was an eligible
// answer for a Waitany/Testany at the moment of the call. Tool layers use it
// to enumerate the alternate outcomes of a completion choice point.
func (r *Request) CompletedPending() bool {
	return !r.consumed && r.done
}

func (r *Request) String() string {
	return fmt.Sprintf("Request(%s #%d peer=%d tag=%d %s)", r.kind, r.id, r.peer, r.tag, r.comm)
}

// matchesEnv reports whether a posted receive can match an envelope under
// MPI matching rules.
func (r *Request) matchesEnv(env *envelope) bool {
	if r.peer != AnySource && r.peer != env.src {
		return false
	}
	if r.tag != AnyTag && r.tag != env.tag {
		return false
	}
	return true
}
