package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"slices"
	"testing"
)

// TestFuncSymbolMatchesNm: a declaration maps to the name `go tool nm` prints
// for it once both sides lose their type parameters.
func TestFuncSymbolMatchesNm(t *testing.T) {
	const src = `package p
func F() {}
func (T) Value() {}
func (t *T) Pointer() {}
func (f *Frontier[T]) Grant() {}
func (f Frontier[T]) Len() int { return 0 }
func (m *Pair[K, V]) Put() {}
func sortByText[T any](s []T) {}
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	// What nm prints for each, from a real binary where one exists.
	nm := []string{
		"dampi/p.F",
		"dampi/p.T.Value",
		"dampi/p.(*T).Pointer",
		"dampi/p.(*Frontier[go.shape.struct { dampi/internal/dcoord.task *dampi/internal/core.SubtreeTask; dampi/internal/dcoord.lost int }]).Grant",
		"dampi/p.Frontier[go.shape.*uint8].Len",
		"dampi/p.(*Pair[go.shape.string,go.shape.[]int]).Put",
		"dampi/p.sortByText[go.shape.struct { Rank int; Comm dampi/mpi.CommRef }]",
	}
	var got []string
	for _, d := range f.Decls {
		got = append(got, funcSymbol("dampi/p", d.(*ast.FuncDecl)))
	}
	for i, sym := range nm {
		if want := stripTypeParams(sym); got[i] != want {
			t.Errorf("decl %d maps to %q, nm's %q strips to %q", i, got[i], sym, want)
		}
	}
}

// TestCheck: an unreached function must be allowed, and an allowed one must
// be unreached and exist.
func TestCheck(t *testing.T) {
	funcs := map[string]string{"p.Used": "a.go:1", "p.Dead": "a.go:2", "p.Listed": "a.go:3"}
	reached := map[string]bool{"p.Used": true}
	if got := check(funcs, reached, map[string]bool{"p.Dead": true, "p.Listed": true}); len(got) != 0 {
		t.Errorf("clean tree reports %q", got)
	}
	got := check(funcs, reached, map[string]bool{"p.Used": true, "p.Gone": true, "p.Listed": true})
	want := []string{
		"a.go:2: p.Dead is reached by no binary and not in allow.txt",
		"allow.txt: p.Gone names no function",
		"allow.txt: p.Used is reached; drop its line",
	}
	if !slices.Equal(got, want) {
		t.Errorf("check = %q, want %q", got, want)
	}
}
