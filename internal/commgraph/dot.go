package commgraph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the instantiated match graph in Graphviz DOT format: one
// cluster per rank holding its sites in program order, solid edges for
// type-refined matches, dashed edges for matches the payload-type
// refinement rules out. Multiple graphs may be written to the same stream;
// Graphviz treats them as pages. It returns the first error writing to out.
func WriteDOT(out io.Writer, g *Graph) error {
	w := bufio.NewWriter(out) // keeps the first write error; Flush returns it
	name := sanitizeDOT(g.Summary.Name)
	fmt.Fprintf(w, "digraph %q {\n", fmt.Sprintf("%s_n%d", name, g.Size))
	fmt.Fprintf(w, "  label=%q;\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n",
		fmt.Sprintf("%s (size %d)", g.Summary.Name, g.Size))
	id := func(st *Site) string {
		for i, s := range g.Sites[st.Rank] {
			if s == st {
				return fmt.Sprintf("r%d_%d", st.Rank, i)
			}
		}
		return fmt.Sprintf("r%d_x", st.Rank)
	}
	for r := 0; r < g.Size; r++ {
		fmt.Fprintf(w, "  subgraph \"cluster_r%d\" {\n    label=\"rank %d\";\n", r, r)
		for i, st := range g.Sites[r] {
			label := fmt.Sprintf("%s %s(peer=%s, tag=%s)", st.Op.Kind, st.Op.Method, st.Op.Peer, st.Op.Tag)
			attrs := []string{fmt.Sprintf("label=%q", label)}
			if !st.Certain {
				attrs = append(attrs, "style=dotted")
			}
			if st.Op.Wildcard() {
				attrs = append(attrs, "color=blue")
			}
			fmt.Fprintf(w, "    r%d_%d [%s];\n", r, i, strings.Join(attrs, ", "))
			// Program order within the rank.
			if i > 0 {
				fmt.Fprintf(w, "    r%d_%d -> r%d_%d [style=invis];\n", r, i-1, r, i)
			}
		}
		fmt.Fprintln(w, "  }")
	}
	for _, s := range g.sends() {
		for _, r := range g.recvs() {
			if !matches(s, r) {
				continue
			}
			style := ""
			if !typeRefined(s, r) {
				style = " [style=dashed, color=gray]"
			}
			fmt.Fprintf(w, "  %s -> %s%s;\n", id(s), id(r), style)
		}
	}
	fmt.Fprintln(w, "}")
	return w.Flush()
}

func sanitizeDOT(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}
