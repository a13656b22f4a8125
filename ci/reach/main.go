// Command reach is the reachability gate: every function of the module's
// library packages must be reached from a shipped binary, or be listed in
// allow.txt with the reason it stays.
//
//	go run ./ci/reach
//
// It builds ./cmd/... and ./examples/... without inlining into a temporary
// directory and collects their text symbols with `go tool nm`; the linker has
// already dropped every function no binary can reach. It then walks every
// non-test func declaration outside package main (cmd/, examples/, bench/),
// maps it to the symbol the compiler gives it, and fails on
//   - a function no binary reaches that allow.txt does not list, and
//   - an allow.txt line naming a function a binary reaches, or none at all.
//
// Type parameters are stripped on both sides, so a method of a generic type
// matches every instantiation of it.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// reasons are the kinds of reason an allow.txt line may give; its header
// says what each means.
var reasons = map[string]bool{"mpi-api": true, "library": true, "stringer": true, "bench": true, "fixture": true}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run() error {
	reached, err := binarySymbols("./cmd/...", "./examples/...")
	if err != nil {
		return err
	}
	funcs, err := declaredFuncs("./...")
	if err != nil {
		return err
	}
	allow, err := readAllow(filepath.Join("ci", "reach", "allow.txt"))
	if err != nil {
		return err
	}
	problems := check(funcs, reached, allow)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("%d problem(s)", len(problems))
	}
	fmt.Printf("reach: %d functions, %d allowed unreached\n", len(funcs), len(allow))
	return nil
}

// check compares the declared functions with the reached symbols and the
// allowlist, and returns one line per problem, sorted.
func check(funcs map[string]string, reached, allow map[string]bool) []string {
	var problems []string
	for sym, pos := range funcs {
		if !reached[sym] && !allow[sym] {
			problems = append(problems, fmt.Sprintf("%s: %s is reached by no binary and not in allow.txt", pos, sym))
		}
	}
	for sym := range allow {
		switch {
		case funcs[sym] == "":
			problems = append(problems, fmt.Sprintf("allow.txt: %s names no function", sym))
		case reached[sym]:
			problems = append(problems, fmt.Sprintf("allow.txt: %s is reached; drop its line", sym))
		}
	}
	sort.Strings(problems)
	return problems
}

// binarySymbols builds the given main packages without inlining and returns
// the set of their text symbols, type parameters stripped.
func binarySymbols(patterns ...string) (map[string]bool, error) {
	dir, err := os.MkdirTemp("", "reach")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := append([]string{"build", "-gcflags=all=-l", "-o", dir + string(filepath.Separator)}, patterns...)
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build: %v\n%s", err, out)
	}
	bins, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	syms := map[string]bool{}
	for _, b := range bins {
		nm := exec.Command("go", "tool", "nm", filepath.Join(dir, b.Name()))
		nm.Stderr = os.Stderr
		out, err := nm.Output()
		if err != nil {
			return nil, fmt.Errorf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			// "addr T name", where a shape-instantiated name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(line), " ", 3)
			if len(f) == 3 && (f[1] == "T" || f[1] == "t") {
				syms[stripTypeParams(f[2])] = true
			}
		}
	}
	return syms, nil
}

// stripTypeParams removes every bracketed type argument list from a symbol:
// dexplore.(*Frontier[go.shape.*uint8]).Grant becomes dexplore.(*Frontier).Grant.
func stripTypeParams(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// pkg is what `go list -json` says of one package.
type pkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
}

// declaredFuncs returns every non-test func of the module's library packages
// (not package main; go list skips testdata/) as symbol → file:line.
func declaredFuncs(pattern string) (map[string]string, error) {
	list := exec.Command("go", "list", "-json", pattern)
	list.Stderr = os.Stderr
	out, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	funcs := map[string]string{}
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p pkg
		if err := dec.Decode(&p); err != nil {
			return nil, err
		}
		if p.Name == "main" { // the binaries themselves, bench/ and this gate
			continue
		}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "_" || (fd.Recv == nil && fd.Name.Name == "init") {
					continue
				}
				funcs[funcSymbol(p.ImportPath, fd)] = fset.Position(fd.Pos()).String()
			}
		}
	}
	return funcs, nil
}

// funcSymbol is the linker's name for a declared function, type parameters
// stripped: path.F, path.T.M for a value receiver, path.(*T).M for a pointer
// receiver.
func funcSymbol(path string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return path + "." + fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch t := typ.(type) {
	case *ast.IndexExpr:
		typ = t.X
	case *ast.IndexListExpr:
		typ = t.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return path + ".(*" + name + ")." + fd.Name.Name
	}
	return path + "." + name + "." + fd.Name.Name
}

// readAllow reads allow.txt: one "symbol reason" per line, where reason is
// one of reasons; blank lines and lines starting with # are skipped.
func readAllow(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	allow := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 || !reasons[f[1]] {
			return nil, fmt.Errorf("%s:%d: want \"symbol reason\" with a reason from the file's header, got %q", path, i+1, line)
		}
		if allow[f[0]] {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, f[0])
		}
		allow[f[0]] = true
	}
	return allow, nil
}
