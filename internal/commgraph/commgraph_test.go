package commgraph

import (
	"go/token"
	"reflect"
	"strings"
	"testing"
)

func TestExprEval(t *testing.T) {
	cases := []struct {
		name       string
		e          *Expr
		rank, size int
		want       int
		ok         bool
	}{
		{"const", Const(7), 0, 4, 7, true},
		{"rank", Rank(), 2, 4, 2, true},
		{"size", Size(), 0, 5, 5, true},
		{"ring next", Bin("%", Bin("+", Rank(), Const(1)), Size()), 3, 4, 0, true},
		{"ring prev wraps", Bin("%", Bin("-", Rank(), Const(1)), Size()), 0, 4, 3, true},
		{"size-1", Bin("-", Size(), Const(1)), 0, 6, 5, true},
		{"neg", Neg(Const(3)), 0, 4, -3, true},
		{"div", Bin("/", Rank(), Const(2)), 5, 8, 2, true},
		{"div by zero", Bin("/", Rank(), Const(0)), 1, 4, 0, false},
		{"mod by zero", Bin("%", Rank(), Const(0)), 1, 4, 0, false},
		{"nil is unresolved", nil, 0, 4, 0, false},
		{"bin over nil stays nil", Bin("+", nil, Const(1)), 0, 4, 0, false},
	}
	for _, tc := range cases {
		got, ok := tc.e.Eval(tc.rank, tc.size)
		if got != tc.want || ok != tc.ok {
			t.Errorf("%s: Eval(%d,%d) = (%d,%v), want (%d,%v)", tc.name, tc.rank, tc.size, got, ok, tc.want, tc.ok)
		}
	}
}

func TestCondEval(t *testing.T) {
	isZero := Cmp("==", Rank(), Const(0))
	if got := isZero.Eval(0, 4); got != Yes {
		t.Errorf("rank==0 at rank 0 = %v, want Yes", got)
	}
	if got := isZero.Eval(2, 4); got != No {
		t.Errorf("rank==0 at rank 2 = %v, want No", got)
	}
	if got := Cmp("==", nil, Const(0)).Eval(0, 4); got != Maybe {
		t.Errorf("comparison over unresolved expr = %v, want Maybe", got)
	}
	// Three-valued connectives: No dominates And, Yes dominates Or, even
	// against Unknown.
	if got := And(Unknown(), False()).Eval(0, 4); got != No {
		t.Errorf("Unknown AND False = %v, want No", got)
	}
	if got := Or(Unknown(), True()).Eval(0, 4); got != Yes {
		t.Errorf("Unknown OR True = %v, want Yes", got)
	}
	if got := Not(Unknown()).Eval(0, 4); got != Maybe {
		t.Errorf("NOT Unknown = %v, want Maybe", got)
	}
	if got := Not(isZero).Eval(0, 4); got != No {
		t.Errorf("NOT (rank==0) at rank 0 = %v, want No", got)
	}
	var nilCond *Cond
	if got := nilCond.Eval(0, 4); got != Yes {
		t.Errorf("nil guard = %v, want Yes (the empty guard)", got)
	}
}

func TestCompatible(t *testing.T) {
	if !Compatible(TypeUnknown, TypeFloat64) || !Compatible(TypeBytes, TypeUnknown) {
		t.Error("unknown payloads must be compatible with everything")
	}
	if !Compatible(TypeFloat64, TypeFloat64) {
		t.Error("identical types must be compatible")
	}
	if Compatible(TypeBytes, TypeFloat64) || Compatible(TypeInt64, TypeFloat64) {
		t.Error("distinct known types must be incompatible")
	}
}

// onRank guards an op to a single rank.
func onRank(r int) *Cond { return Cmp("==", Rank(), Const(r)) }

// ringSummary is a clean ring: every rank sends tag 1 to (rank+1)%size and
// receives tag 1 from (rank-1)%size. No findings, no wildcard hints.
func ringSummary() *Summary {
	next := Bin("%", Bin("+", Rank(), Const(1)), Size())
	prev := Bin("%", Bin("-", Rank(), Const(1)), Size())
	return &Summary{
		Name:     "ring",
		Complete: true,
		Ops: []*Op{
			{Kind: OpSend, Peer: next, Tag: Const(1), Comm: CommWorld, Guard: True(), Blocking: true, Method: "Send", Pos: 1},
			{Kind: OpRecv, Peer: prev, Tag: Const(1), Comm: CommWorld, Guard: True(), Blocking: true, Method: "Recv", Pos: 2},
		},
	}
}

func TestAnalyzeCleanRing(t *testing.T) {
	if got := Analyze(ringSummary(), DefaultSizes); len(got) != 0 {
		t.Errorf("clean ring produced findings: %v", got)
	}
}

func TestAnalyzeGates(t *testing.T) {
	s := ringSummary()
	s.Complete = false
	if got := Analyze(s, DefaultSizes); got != nil {
		t.Errorf("incomplete summary produced findings: %v", got)
	}
	sendOnly := &Summary{
		Name:     "sendonly",
		Complete: true,
		Ops: []*Op{
			{Kind: OpSend, Peer: Const(0), Tag: Const(1), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 1},
		},
	}
	if got := Analyze(sendOnly, DefaultSizes); got != nil {
		t.Errorf("one-sided summary produced findings: %v", got)
	}
	if got := Analyze(nil, DefaultSizes); got != nil {
		t.Errorf("nil summary produced findings: %v", got)
	}
}

func TestAnalyzeOrphanSend(t *testing.T) {
	// In a ring every rank receives, so an unmatched send there is a tag
	// mismatch, not an orphan; orphanhood needs a destination with no
	// receives at all (rank 3 here).
	s := &Summary{
		Name:     "orphan",
		Complete: true,
		Ops: []*Op{
			{Kind: OpRecv, Peer: Const(1), Tag: Const(1), Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 10},
			{Kind: OpSend, Peer: Const(0), Tag: Const(1), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 20},
			{Kind: OpSend, Peer: Const(3), Tag: Const(9), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 30},
		},
	}
	got := Analyze(s, DefaultSizes)
	if len(got) != 1 || got[0].Check != "orphan" || got[0].Pos != 30 {
		t.Fatalf("orphan send findings = %v, want one orphan at pos 30", got)
	}
}

func TestAnalyzeTagOnlyMismatchOnRing(t *testing.T) {
	// The same unmatched send into a ring (where every rank receives tag 1)
	// is reported as a tag mismatch instead.
	s := ringSummary()
	s.Ops = append(s.Ops, &Op{
		Kind: OpSend, Peer: Const(2), Tag: Const(9), Comm: CommWorld,
		Guard: onRank(0), Blocking: true, Method: "Send", Pos: 30,
	})
	got := Analyze(s, DefaultSizes)
	if len(got) != 1 || got[0].Check != "tagmismatch" || got[0].Pos != 30 {
		t.Fatalf("unmatched ring send findings = %v, want one tagmismatch at pos 30", got)
	}
}

func TestAnalyzeTagMismatch(t *testing.T) {
	s := &Summary{
		Name:     "tags",
		Complete: true,
		Ops: []*Op{
			{Kind: OpRecv, Peer: Const(1), Tag: Const(5), Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 10},
			{Kind: OpSend, Peer: Const(0), Tag: Const(7), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 20},
		},
	}
	got := Analyze(s, DefaultSizes)
	if len(got) != 2 {
		t.Fatalf("tag-mismatched pair findings = %v, want 2", got)
	}
	for _, f := range got {
		if f.Check != "tagmismatch" {
			t.Errorf("finding %v, want check tagmismatch", f)
		}
	}
}

// wildSummary models the fanin shape: a wildcard tag-3 receive at rank 0
// that decodes float64, one float64 sender (rank 1), one raw-bytes sender
// (rank 2), and a drain receive for the bytes message.
func wildSummary() *Summary {
	return &Summary{
		Name:     "wild",
		Complete: true,
		Ops: []*Op{
			{Kind: OpRecv, Peer: Const(-1), Tag: Const(3), Consume: TypeFloat64, Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 10},
			{Kind: OpRecv, Peer: Const(2), Tag: Const(3), Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 11},
			{Kind: OpSend, Peer: Const(0), Tag: Const(3), Payload: TypeFloat64, Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 20},
			{Kind: OpSend, Peer: Const(0), Tag: Const(3), Payload: TypeBytes, Comm: CommWorld, Guard: onRank(2), Blocking: true, Method: "Send", Pos: 21},
		},
	}
}

func TestAnalyzeWildtype(t *testing.T) {
	got := Analyze(wildSummary(), DefaultSizes)
	if len(got) != 1 || got[0].Check != "wildtype" || got[0].Pos != 10 || !strings.Contains(got[0].Message, "sender(s) {2}") {
		t.Fatalf("wildtype findings = %v, want one wildtype at pos 10 naming sender 2", got)
	}
}

func TestMatchSetRefinement(t *testing.T) {
	g := wildSummary().Instantiate(4)
	wild := g.Sites[0][0]
	if raw := g.MatchSet(wild, false); !reflect.DeepEqual(raw, []int{1, 2}) {
		t.Errorf("raw match set = %v, want [1 2] (the dynamic matcher's view)", raw)
	}
	if refined := g.MatchSet(wild, true); !reflect.DeepEqual(refined, []int{1}) {
		t.Errorf("refined match set = %v, want [1] (payload-type refinement)", refined)
	}
}

func TestAnalyzeCycle(t *testing.T) {
	s := &Summary{
		Name:     "headtohead",
		Complete: true,
		Ops: []*Op{
			{Kind: OpRecv, Peer: Const(1), Tag: Const(4), Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 10},
			{Kind: OpRecv, Peer: Const(0), Tag: Const(4), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Recv", Pos: 11},
			{Kind: OpSend, Peer: Const(1), Tag: Const(4), Comm: CommWorld, Guard: onRank(0), Blocking: true, Method: "Send", Pos: 20},
			{Kind: OpSend, Peer: Const(0), Tag: Const(4), Comm: CommWorld, Guard: onRank(1), Blocking: true, Method: "Send", Pos: 21},
		},
	}
	got := Analyze(s, DefaultSizes)
	if len(got) != 1 || got[0].Check != "cycle" {
		t.Fatalf("cycle findings = %v, want one cycle", got)
	}
	if got[0].Pos != 10 {
		t.Errorf("cycle anchored at pos %v, want 10 (lowest-rank member's receive)", got[0].Pos)
	}
}

// TestHintsIgnorePayloadTypes: a hint set is the raw match set, so the
// sender whose payload the receive cannot decode is in it, as it is in the
// runtime matcher's.
func TestHintsIgnorePayloadTypes(t *testing.T) {
	hints, notes := Hints(wildSummary(), 4)
	if len(notes) != 0 {
		t.Errorf("unexpected notes: %v", notes)
	}
	want := map[HintKey][]int{{Rank: 0, Tag: 3, Probe: false}: {1, 2}}
	if !reflect.DeepEqual(hints, want) {
		t.Errorf("hints = %v, want %v", hints, want)
	}
}

func TestHintsIncompleteYieldsNothing(t *testing.T) {
	s := wildSummary()
	s.Complete = false
	s.Notes = []string{"proc escaped"}
	hints, notes := Hints(s, 4)
	if hints != nil {
		t.Errorf("incomplete summary yielded hints: %v", hints)
	}
	if len(notes) == 0 {
		t.Error("incomplete summary yielded no explanatory notes")
	}
}

func TestHintsUnresolvedTagPoisonsRank(t *testing.T) {
	s := wildSummary()
	// A second wildcard at rank 0 whose tag never resolves: its epochs could
	// collide with any hint key on that rank, so the whole rank drops out.
	s.Ops = append(s.Ops, &Op{
		Kind: OpRecv, Peer: Const(-1), Tag: nil, Comm: CommWorld,
		Guard: onRank(0), Blocking: true, Method: "Recv", Pos: 40,
	})
	hints, notes := Hints(s, 4)
	if len(hints) != 0 {
		t.Errorf("poisoned rank still produced hints: %v", hints)
	}
	if len(notes) == 0 {
		t.Error("poisoning produced no explanatory note")
	}
}

// TestHintsConditionalSitesUnion: sites that only may execute still
// contribute their senders, so the hint over-approximates every path.
func TestHintsConditionalSitesUnion(t *testing.T) {
	s := wildSummary()
	s.Ops = append(s.Ops, &Op{
		Kind: OpSend, Peer: Const(0), Tag: Const(3), Payload: TypeFloat64, Comm: CommWorld,
		Guard: onRank(3), Conditional: true, Blocking: true, Method: "Send", Pos: 50,
	})
	hints, _ := Hints(s, 4)
	want := map[HintKey][]int{{Rank: 0, Tag: 3}: {1, 2, 3}}
	if !reflect.DeepEqual(hints, want) {
		t.Errorf("hints = %v, want %v (conditional sender included)", hints, want)
	}
}

// TestOutOfWorldPeer: a resolved peer outside [0,size) is neither certain
// nor matchable.
func TestOutOfWorldPeer(t *testing.T) {
	op := &Op{Kind: OpSend, Peer: Const(9), Tag: Const(1), Comm: CommWorld, Guard: True(), Blocking: true, Method: "Send", Pos: token.Pos(1)}
	g := (&Summary{Name: "oob", Complete: true, Ops: []*Op{op}}).Instantiate(4)
	st := g.Sites[0][0]
	if st.Certain || st.MayMatch {
		t.Errorf("out-of-world send site: Certain=%v MayMatch=%v, want false/false", st.Certain, st.MayMatch)
	}
}
