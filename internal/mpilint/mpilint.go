// Package mpilint is a static analyzer for Go programs written against the
// mpi.Proc API. It finds, before a single interleaving is executed, the
// resource and usage errors the dynamic verifier catches at runtime
// (paper Table II), plus deadlock-prone call shapes only visible in the
// program text:
//
//	rleak    — a request from Isend/Issend/Irecv that no path completes
//	           with Wait/Test/Waitall/Waitany/Testall/... (static R-leak)
//	cleak    — a communicator from CommDup/CommSplit with no CommFree
//	           (static C-leak)
//	errcheck — the error result of an MPI call is discarded
//	bufreuse — a send buffer written between an Isend and its completion
//	rankcoll — a collective called under a condition derived from Rank()
//	           (mismatched-collective deadlock risk)
//	wildcard — audit of every AnySource/AnyTag receive and probe site
//	           (informational; the AnySource sites are the choice points the
//	           dynamic verifier branches on)
//
// Four further checks work on the static communication graph: per-rank
// communication summaries extracted from each program root (a function of
// the exact shape func(p *mpi.Proc) error) and composed into an
// over-approximated match graph at several world sizes (see
// internal/commgraph):
//
//	orphan      — a send or receive with no statically feasible matching
//	              peer at any tested world size
//	tagmismatch — a send/receive pair that can only fail to match because
//	              of tags or payload-type use
//	wilddet     — a wildcard receive whose static match set is a singleton
//	              (informational: the nondeterminism is illusory, and the
//	              dynamic explorer can prune the branch)
//	cycle       — a potential deadlock cycle of blocking specific-source
//	              receives in the static waits-for graph
//
// The analyzer uses only the Go standard library: go/parser for syntax and
// go/types for best-effort type information, resolved by a recursive
// in-module source importer. When type information is unavailable (no
// go.mod, broken imports) it degrades to a syntactic oracle that recognizes
// *mpi.Proc parameters and propagates the known result types of the API.
//
// A diagnostic is suppressed by the comment
//
//	//mpilint:ignore <check>[,<check>...] [-- reason]
//
// placed on the flagged line or the line above it. Suppressed diagnostics
// stay in the Report (marked Suppressed) but do not fail a run.
package mpilint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Severity grades a diagnostic.
type Severity int

const (
	// SevInfo diagnostics (the wildcard audit) inform but never fail a run.
	SevInfo Severity = iota
	// SevError diagnostics fail the run unless suppressed.
	SevError
)

func (s Severity) String() string {
	if s == SevInfo {
		return "info"
	}
	return "error"
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Check    string   `json:"check"`
	Message  string   `json:"message"`
	Severity Severity `json:"-"`
	Sev      string   `json:"severity"`
	// ChoicePoint marks a site the dynamic verifier actually branches on: an
	// AnySource receive or probe (wildcard check), or a Waitany/Waitsome/
	// Testany/Iprobe whose outcome is schedule-dependent (choicepoint check).
	// AnyTag-only sites are wild in the MPI sense but match a unique sender
	// order at runtime, so they are audited without this mark.
	ChoicePoint bool `json:"choice_point,omitempty"`
	Suppressed  bool `json:"suppressed,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Check, d.Message)
}

// Report is the aggregated result of a Run.
type Report struct {
	Diags    []Diagnostic `json:"diagnostics"`
	Packages int          `json:"packages"`
	Files    int          `json:"files"`
}

// Failing returns the non-suppressed error-severity diagnostics — the set
// that makes a run fail.
func (r *Report) Failing() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Severity == SevError && !d.Suppressed {
			out = append(out, d)
		}
	}
	return out
}

// Wildcards returns the wildcard-audit diagnostics: every static
// AnySource/AnyTag receive and probe site.
func (r *Report) Wildcards() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Check == "wildcard" {
			out = append(out, d)
		}
	}
	return out
}

// ChoicePointAudit returns the choicepoint-check diagnostics: the
// Waitany/Waitsome/Testany completion sites and Iprobe polls whose outcome
// is schedule-dependent (the sites `dampi -sample` flips).
func (r *Report) ChoicePointAudit() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.Check == "choicepoint" {
			out = append(out, d)
		}
	}
	return out
}

// ChoicePoints returns every site the dynamic verifier branches on:
// AnySource receives and probes (wildcard check) plus schedule-dependent
// completion and poll sites (choicepoint check). This is the static census
// the dynamic engine's decision-point count should stay within.
func (r *Report) ChoicePoints() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diags {
		if d.ChoicePoint {
			out = append(out, d)
		}
	}
	return out
}

// JSON renders the report.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// Options configure a Run.
type Options struct {
	// Checks selects check names to run (see CheckNames); nil means all.
	Checks []string
	// IncludeTests also analyzes _test.go files.
	IncludeTests bool
	// DisableSuppressions ignores //mpilint:ignore comments, reporting every
	// finding unsuppressed (used by the static/dynamic cross-check tests).
	DisableSuppressions bool
	// NoTypeCheck skips go/types entirely, exercising the syntactic oracle.
	NoTypeCheck bool
}

// checkDef is one registered check. Function-scoped checks set run; graph
// checks (whole-program, over the static communication graph) set graph and
// are dispatched by runGraphChecks instead.
type checkDef struct {
	name     string
	doc      string
	severity Severity
	run      func(fc *funcCtx)
	graph    bool
}

var allChecks = []*checkDef{
	rleakCheck,
	cleakCheck,
	errcheckCheck,
	bufreuseCheck,
	rankcollCheck,
	wildcardCheck,
	choicepointCheck,
	orphanCheck,
	tagmismatchCheck,
	wilddetCheck,
	cycleCheck,
}

// CheckNames lists the registered checks in their canonical order.
func CheckNames() []string {
	out := make([]string, len(allChecks))
	for i, c := range allChecks {
		out[i] = c.name
	}
	return out
}

// CheckDoc returns each check's one-line description, keyed by name.
func CheckDoc() map[string]string {
	out := make(map[string]string, len(allChecks))
	for _, c := range allChecks {
		out[c.name] = c.doc
	}
	return out
}

func selectChecks(names []string) ([]*checkDef, error) {
	if len(names) == 0 {
		return allChecks, nil
	}
	byName := map[string]*checkDef{}
	for _, c := range allChecks {
		byName[c.name] = c
	}
	var out []*checkDef
	seen := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" || seen[n] {
			continue
		}
		c, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("mpilint: unknown check %q (have %s)", n, strings.Join(CheckNames(), ","))
		}
		seen[n] = true
		out = append(out, c)
	}
	return out, nil
}

// unit is one package directory worth of files to analyze.
type unit struct {
	dir   string
	files []string
}

// Run analyzes the packages named by paths. Each path is a Go package
// directory, a single .go file, or a pattern ending in "/..." that walks the
// tree (skipping testdata, vendor, and hidden or underscore directories, as
// the go tool does).
func Run(paths []string, opts Options) (*Report, error) {
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	units, err := expandPaths(paths, opts.IncludeTests)
	if err != nil {
		return nil, err
	}
	tc := lockChecker()
	defer checkerMu.Unlock()
	fset := tc.fset
	rep := &Report{}
	for _, u := range units {
		if err := lintUnit(fset, tc, u, checks, opts, rep); err != nil {
			return nil, err
		}
	}
	sort.Slice(rep.Diags, func(i, j int) bool {
		a, b := rep.Diags[i], rep.Diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return rep, nil
}

func expandPaths(paths []string, includeTests bool) ([]*unit, error) {
	if len(paths) == 0 {
		paths = []string{"."}
	}
	byDir := map[string]*unit{}
	var order []string
	addDir := func(dir string) error {
		if _, ok := byDir[dir]; ok {
			return nil
		}
		files, err := goFilesIn(dir, includeTests)
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return nil
		}
		byDir[dir] = &unit{dir: dir, files: files}
		order = append(order, dir)
		return nil
	}
	for _, p := range paths {
		switch {
		case strings.HasSuffix(p, "/...") || p == "...":
			root := strings.TrimSuffix(p, "...")
			root = strings.TrimSuffix(root, "/")
			if root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return addDir(path)
			})
			if err != nil {
				return nil, fmt.Errorf("mpilint: walking %s: %w", p, err)
			}
		default:
			fi, err := os.Stat(p)
			if err != nil {
				return nil, fmt.Errorf("mpilint: %w", err)
			}
			if fi.IsDir() {
				if err := addDir(filepath.Clean(p)); err != nil {
					return nil, err
				}
			} else {
				dir := filepath.Dir(p)
				u := byDir[dir]
				if u == nil {
					u = &unit{dir: dir}
					byDir[dir] = u
					order = append(order, dir)
				}
				u.files = append(u.files, p)
			}
		}
	}
	units := make([]*unit, 0, len(order))
	for _, d := range order {
		units = append(units, byDir[d])
	}
	return units, nil
}

func goFilesIn(dir string, includeTests bool) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, filepath.Join(dir, name))
	}
	return out, nil
}

func lintUnit(fset *token.FileSet, tc *typeChecker, u *unit, checks []*checkDef, opts Options, rep *Report) error {
	var files []*ast.File
	for _, path := range u.files {
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("mpilint: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	// The mpi runtime package itself implements the Proc API; user-program
	// rules do not apply to it.
	if isRuntimePackage(files) {
		return nil
	}
	rep.Packages++
	rep.Files += len(files)

	var info *typeInfo
	if !opts.NoTypeCheck {
		info = tc.check(u.dir, files)
	}
	cls := newClassifier(fset, files, info)
	supp := collectSuppressions(fset, files)
	p := &pass{fset: fset, opts: opts, supp: supp, rep: rep}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fc := newFuncCtx(p, cls, f, fd)
			for _, c := range checks {
				if c.run == nil {
					continue
				}
				fc.check = c
				c.run(fc)
			}
		}
	}
	runGraphChecks(p, cls, fset, files, checks)
	return nil
}

// isRuntimePackage reports whether the files define the mpi runtime itself
// (package mpi declaring type Proc).
func isRuntimePackage(files []*ast.File) bool {
	for _, f := range files {
		if f.Name.Name != "mpi" {
			return false
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.Name == "Proc" {
					if _, isStruct := ts.Type.(*ast.StructType); isStruct {
						return true
					}
				}
			}
		}
	}
	return false
}

// pass carries the reporting state shared by every check over one package.
type pass struct {
	fset *token.FileSet
	opts Options
	supp suppressions
	rep  *Report
}

func (p *pass) report(chk *checkDef, pos token.Pos, format string, args ...any) {
	p.reportOpts(chk, pos, false, format, args...)
}

func (p *pass) reportOpts(chk *checkDef, pos token.Pos, choicePoint bool, format string, args ...any) {
	position := p.fset.Position(pos)
	d := Diagnostic{
		File:        position.Filename,
		Line:        position.Line,
		Col:         position.Column,
		Check:       chk.name,
		Message:     fmt.Sprintf(format, args...),
		Severity:    chk.severity,
		Sev:         chk.severity.String(),
		ChoicePoint: choicePoint,
	}
	if !p.opts.DisableSuppressions && p.supp.matches(d.File, d.Line, chk.name) {
		d.Suppressed = true
	}
	p.rep.Diags = append(p.rep.Diags, d)
}
