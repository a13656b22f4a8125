package commgraph

import (
	"fmt"
	"go/token"
	"slices"
	"sort"
	"strings"
)

// Finding is one whole-program diagnostic derived from the match graph.
type Finding struct {
	// Check names the graph check: orphan, tagmismatch, wildtype, cycle.
	Check string
	// Pos anchors the diagnostic at the offending call site.
	Pos token.Pos
	// Message is the human-readable description.
	Message string
}

// DefaultSizes are the world sizes graph checks are instantiated at. A
// finding must hold at every size to be reported, which filters out
// small-world artifacts (at size 2 every wildcard is trivially a
// singleton).
var DefaultSizes = []int{4, 5}

// Analyze runs the whole-program graph checks over one summary. Incomplete
// summaries and summaries without both sends and receives yield nothing:
// there is no conversation to check.
func Analyze(sum *Summary, sizes []int) []Finding {
	if sum == nil || !sum.Complete || !sum.HasSend() || !sum.HasRecv() {
		return nil
	}
	if len(sizes) == 0 {
		sizes = DefaultSizes
	}
	// A finding is keyed by (check, op position) and must fire at every
	// instantiated size; the message from the largest size wins.
	type key struct {
		check string
		pos   token.Pos
	}
	hits := map[key]int{}
	msgs := map[key]string{}
	add := func(check string, pos token.Pos, msg string) {
		k := key{check, pos}
		hits[k]++
		msgs[k] = msg
	}
	for _, size := range sizes {
		g := sum.Instantiate(size)
		analyzeP2P(g, add)
		analyzeCycle(g, add)
	}
	var out []Finding
	for k, n := range hits {
		if n == len(sizes) {
			out = append(out, Finding{Check: k.check, Pos: k.pos, Message: msgs[k]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos != out[j].Pos {
			return out[i].Pos < out[j].Pos
		}
		return out[i].Check < out[j].Check
	})
	return out
}

// analyzeP2P derives orphan, tagmismatch, and wildtype findings at one size.
// Sites are aggregated per op: the finding fires only if every certain
// instance of the op exhibits it (and at least one instance is certain).
func analyzeP2P(g *Graph, add func(check string, pos token.Pos, msg string)) {
	type agg struct {
		certain   int
		orphan    int
		tagOnly   int // raw-empty but matchable when the tag is ignored
		typeDead  int // raw nonempty, type-refined empty
		wildtype  int // wildcard: some, not all, raw senders type-refined away
		undecoded []int
		site      *Site
	}
	recvAgg := map[*Op]*agg{}
	sendAgg := map[*Op]*agg{}
	for _, r := range g.recvs() {
		if !r.Certain {
			continue
		}
		a := recvAgg[r.Op]
		if a == nil {
			a = &agg{}
			recvAgg[r.Op] = a
		}
		a.certain++
		a.site = r
		raw := g.MatchSet(r, false)
		refined := g.MatchSet(r, true)
		switch {
		case len(raw) == 0 && anySendTo(g, r.Rank, r.Op):
			a.tagOnly++
		case len(raw) == 0:
			a.orphan++
		case len(refined) == 0:
			a.typeDead++
		case r.Op.Wildcard() && len(refined) < len(raw):
			a.wildtype++
			a.undecoded = minus(raw, refined)
		}
	}
	for _, s := range g.sends() {
		if !s.Certain {
			continue
		}
		a := sendAgg[s.Op]
		if a == nil {
			a = &agg{}
			sendAgg[s.Op] = a
		}
		a.certain++
		a.site = s
		raw := g.RecvSet(s, false)
		refined := g.RecvSet(s, true)
		switch {
		case len(raw) == 0 && anyRecvAt(g, s.Peer, s.Op):
			a.tagOnly++
		case len(raw) == 0:
			a.orphan++
		case len(refined) == 0:
			a.typeDead++
		}
	}
	for op, a := range recvAgg {
		switch {
		case a.tagOnly == a.certain:
			add("tagmismatch", op.Pos, fmt.Sprintf(
				"%s(src=%s, tag=%s) matches no send, but sends to this rank exist with other tags",
				op.Method, op.Peer, op.Tag))
		case a.orphan == a.certain:
			add("orphan", op.Pos, fmt.Sprintf(
				"%s(src=%s, tag=%s) has no feasible matching send at any tested world size",
				op.Method, op.Peer, op.Tag))
		case a.typeDead == a.certain:
			add("tagmismatch", op.Pos, fmt.Sprintf(
				"%s(src=%s, tag=%s) only matches sends whose payload type is incompatible with how the data is decoded (%s)",
				op.Method, op.Peer, op.Tag, op.Consume))
		case a.wildtype == a.certain:
			add("wildtype", op.Pos, fmt.Sprintf(
				"wildcard %s(tag=%s): sender(s) {%s} whose payload type this receive cannot decode can match here",
				op.Method, op.Tag, joinInts(a.undecoded)))
		}
	}
	for op, a := range sendAgg {
		switch {
		case a.tagOnly == a.certain:
			add("tagmismatch", op.Pos, fmt.Sprintf(
				"%s(dst=%s, tag=%s) matches no receive, but the destination receives other tags",
				op.Method, op.Peer, op.Tag))
		case a.orphan == a.certain:
			add("orphan", op.Pos, fmt.Sprintf(
				"%s(dst=%s, tag=%s) has no feasible matching receive at any tested world size",
				op.Method, op.Peer, op.Tag))
		case a.typeDead == a.certain:
			add("tagmismatch", op.Pos, fmt.Sprintf(
				"%s(dst=%s, tag=%s) sends %s but every matching receive decodes a different type",
				op.Method, op.Peer, op.Tag, op.Payload))
		}
	}
}

// minus returns the members of a that b lacks, in a's order.
func minus(a, b []int) []int {
	var out []int
	for _, x := range a {
		if !slices.Contains(b, x) {
			out = append(out, x)
		}
	}
	return out
}

// anySendTo reports whether any may-match send (other than instances of
// skip) could target rank dst when tags are ignored.
func anySendTo(g *Graph, dst int, skip *Op) bool {
	for _, s := range g.sends() {
		if s.Op == skip {
			continue
		}
		if !s.PeerKnown || s.Peer == dst {
			return true
		}
	}
	return false
}

// anyRecvAt reports whether any may-match receive (other than instances of
// skip) at rank dst could accept some sender when tags are ignored.
func anyRecvAt(g *Graph, dst int, skip *Op) bool {
	for _, r := range g.recvs() {
		if r.Op == skip {
			continue
		}
		if r.Rank == dst {
			return true
		}
	}
	return false
}

// analyzeCycle derives the static waits-for cycle check at one size. An
// edge a→b exists only when rank a's FIRST site is a certain, blocking,
// specific-source receive or probe from b: before that op completes, rank a
// can do nothing else, so a cycle in this functional graph deadlocks
// regardless of tags or payloads.
func analyzeCycle(g *Graph, add func(check string, pos token.Pos, msg string)) {
	succ := map[int]int{}
	pos := map[int]token.Pos{}
	for r := 0; r < g.Size; r++ {
		sites := g.Sites[r]
		if len(sites) == 0 {
			continue
		}
		first := sites[0]
		op := first.Op
		if !first.Certain || !op.Blocking || (op.Kind != OpRecv && op.Kind != OpProbe) {
			continue
		}
		if !first.PeerKnown || first.Peer < 0 || first.Peer >= g.Size {
			continue
		}
		succ[r] = first.Peer
		pos[r] = op.Pos
	}
	// Walk the functional graph; every rank is on at most one cycle.
	state := map[int]int{} // 0 unvisited, 1 on stack, 2 done
	for r := range succ {
		if state[r] != 0 {
			continue
		}
		var stack []int
		cur := r
		for {
			state[cur] = 1
			stack = append(stack, cur)
			next, ok := succ[cur]
			if !ok || state[next] == 2 {
				break
			}
			if state[next] == 1 {
				// Found a cycle: the suffix of stack from next.
				i := 0
				for stack[i] != next {
					i++
				}
				cycle := stack[i:]
				lo := cycle[0]
				for _, c := range cycle {
					if c < lo {
						lo = c
					}
				}
				var parts []string
				for _, c := range cycle {
					parts = append(parts, fmt.Sprintf("rank %d waits for rank %d", c, succ[c]))
				}
				add("cycle", pos[lo], "potential deadlock cycle of blocking receives: "+strings.Join(parts, "; "))
				break
			}
			cur = next
		}
		for _, s := range stack {
			state[s] = 2
		}
	}
}

func joinInts(xs []int) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprint(x))
	}
	return strings.Join(parts, ",")
}
