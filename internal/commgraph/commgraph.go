// Package commgraph models the static communication structure of an
// mpi.Proc program: a per-program summary of sends, receives, and probes
// with symbolic peer/tag expressions and branch guards, instantiated at a
// concrete world size into an over-approximated match graph.
//
// mpilint derives whole-program checks from the graph (orphan operations,
// tag/type mismatches, type-confused wildcards, head-to-head receive
// cycles), and Hints derives the sender set of each wildcard decision point
// (verify.StaticHints).
//
// The model is deliberately an over-approximation on source, destination,
// tag, and communicator: anything unresolved matches everything. Payload
// type (EncodeFloat64/EncodeInt64 vs raw bytes) is the one dimension the
// runtime matcher ignores, so a type-refined match set (MatchSet with
// refined) can miss a match an execution makes. The graph checks use the
// refinement to name suspicious matches; Hints does not use it.
package commgraph

import "go/token"

// OpKind classifies a summarized operation.
type OpKind int

// Operation kinds.
const (
	OpSend OpKind = iota
	OpRecv
	OpProbe
	OpCollective
	OpOther
)

func (k OpKind) String() string {
	switch k {
	case OpSend:
		return "send"
	case OpRecv:
		return "recv"
	case OpProbe:
		return "probe"
	case OpCollective:
		return "collective"
	}
	return "other"
}

// PayloadType is the statically inferred payload encoding of a send (what
// the sender packs) or the consumption type of a receive (what the receiver
// decodes). TypeUnknown is compatible with everything.
type PayloadType int

// Payload types.
const (
	TypeUnknown PayloadType = iota
	TypeFloat64
	TypeInt64
	TypeBytes
)

func (t PayloadType) String() string {
	switch t {
	case TypeFloat64:
		return "float64"
	case TypeInt64:
		return "int64"
	case TypeBytes:
		return "bytes"
	}
	return "unknown"
}

// Compatible reports whether a sent payload type can be consumed as t.
// Unknown on either side is compatible (over-approximation).
func Compatible(sent, consumed PayloadType) bool {
	return sent == TypeUnknown || consumed == TypeUnknown || sent == consumed
}

// CommClass classifies the communicator argument of an operation.
type CommClass int

// Communicator classes. CommUnknown is treated as possibly-world when
// matching (over-approximation); CommOther (a resolved dup/split result) is
// excluded from the world match graph.
const (
	CommWorld CommClass = iota
	CommOther
	CommUnknown
)

// Op is one summarized MPI operation of a program, in program order.
type Op struct {
	Kind OpKind
	// Peer is the destination rank (sends) or source rank (recvs/probes).
	// Const(-1) is AnySource on receives; nil is statically unresolved.
	Peer *Expr
	// Tag is the message tag; Const(-1) is AnyTag on receives; nil is
	// unresolved.
	Tag *Expr
	// Payload is the sent payload's encoding (sends only).
	Payload PayloadType
	// Consume is how the received data is decoded (recvs only).
	Consume PayloadType
	// Comm classifies the communicator argument.
	Comm CommClass
	// Guard is the symbolic condition under which the op executes.
	Guard *Cond
	// Conditional marks ops under branches whose condition could not be
	// resolved (they may or may not execute).
	Conditional bool
	// InLoop marks ops inside for/range bodies (may execute 0..n times).
	InLoop bool
	// Blocking marks synchronous ops (Recv, Probe, Send, Ssend, ...).
	Blocking bool
	// Method is the mpi.Proc method name, for messages.
	Method string
	// Pos is the call site, for diagnostics.
	Pos token.Pos
}

// Wildcard reports whether the op is an AnySource receive or probe — the
// sites the dynamic engine branches on.
func (o *Op) Wildcard() bool {
	return (o.Kind == OpRecv || o.Kind == OpProbe) && o.Peer.IsConst(-1)
}

// Summary is the extracted communication summary of one program root.
type Summary struct {
	// Name identifies the root function, for messages and DOT output.
	Name string
	// File/Line locate the root, for messages.
	File string
	Line int
	// Ops in program order.
	Ops []*Op
	// Complete is false when the extractor saw MPI activity it could not
	// summarize (closures doing MPI, the proc escaping to unknown code,
	// go/select statements touching the proc). Incomplete summaries yield
	// no findings and no sender sets.
	Complete bool
	// Notes records why the summary degraded, for -v style reporting.
	Notes []string
}

// HasSend and HasRecv gate the whole-program checks: a summary with only
// one side of the conversation (common in small fixtures and leak tests)
// carries no matching information worth reporting on.
func (s *Summary) HasSend() bool { return s.hasKind(OpSend) }

// HasRecv reports whether the summary contains a receive or probe.
func (s *Summary) HasRecv() bool { return s.hasKind(OpRecv) || s.hasKind(OpProbe) }

func (s *Summary) hasKind(k OpKind) bool {
	for _, o := range s.Ops {
		if o.Kind == k {
			return true
		}
	}
	return false
}
