package mpilint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// mpiPkgPath is the import path of the runtime package the analyzer models.
const mpiPkgPath = "dampi/mpi"

// typeInfo is the best-effort go/types result for one analyzed package. Any
// field may be partially populated: the analyzer must always be prepared to
// fall back to the syntactic oracle.
type typeInfo struct {
	info *types.Info
}

// typeChecker type-checks analyzed packages with a recursive in-module
// source importer: imports inside the enclosing module (found via go.mod)
// are parsed and checked from source; standard-library imports go through
// the compiler's source importer. Anything unresolvable simply yields
// partial type information.
type typeChecker struct {
	fset  *token.FileSet
	std   types.Importer
	cache map[string]*types.Package
	busy  map[string]bool
	// modRoots caches go.mod lookups per directory.
	modRoots map[string][2]string // dir -> (module root, module path)
}

// A process shares one type checker, and with it one FileSet: checking the
// standard library and dampi/mpi from source is most of what an analysis
// costs, and every analysis of the process (a test binary runs dozens) would
// repeat it. Imported packages are therefore as of the first analysis that
// needed them; the analyzed packages themselves are parsed and checked every
// time. checkerMu serializes the analyses, which share the caches.
var (
	checkerMu sync.Mutex
	checker   *typeChecker
)

// lockChecker returns the process's type checker with checkerMu held; the
// caller unlocks it when its analysis is done.
func lockChecker() *typeChecker {
	checkerMu.Lock()
	if checker == nil {
		fset := token.NewFileSet()
		checker = &typeChecker{
			fset:     fset,
			std:      importer.ForCompiler(fset, "source", nil),
			cache:    map[string]*types.Package{},
			busy:     map[string]bool{},
			modRoots: map[string][2]string{},
		}
	}
	return checker
}

// findModule locates the enclosing go.mod of dir and returns the module root
// directory and module path ("", "" if none).
func (tc *typeChecker) findModule(dir string) (string, string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", ""
	}
	if cached, ok := tc.modRoots[abs]; ok {
		return cached[0], cached[1]
	}
	root, path := "", ""
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			if mp := moduleLine(string(data)); mp != "" {
				root, path = d, mp
			}
			break
		}
		parent := filepath.Dir(d)
		if parent == d {
			break
		}
		d = parent
	}
	tc.modRoots[abs] = [2]string{root, path}
	return root, path
}

func moduleLine(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// check type-checks the parsed files of dir, best-effort. It never fails:
// on any error it returns whatever partial information was collected (or
// nil when no module context exists at all).
func (tc *typeChecker) check(dir string, files []*ast.File) *typeInfo {
	root, modPath := tc.findModule(dir)
	if root == "" {
		return nil
	}
	im := &modImporter{tc: tc, root: root, modPath: modPath}
	conf := types.Config{Importer: im, Error: func(error) {}}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkgPath := tc.importPathFor(root, modPath, dir)
	conf.Check(pkgPath, tc.fset, files, info) //nolint:errcheck // best-effort: partial info is fine
	return &typeInfo{info: info}
}

func (tc *typeChecker) importPathFor(root, modPath, dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return modPath
	}
	rel, err := filepath.Rel(root, abs)
	if err != nil || rel == "." {
		return modPath
	}
	return modPath + "/" + filepath.ToSlash(rel)
}

// modImporter resolves one module's imports from source.
type modImporter struct {
	tc      *typeChecker
	root    string
	modPath string
}

func (im *modImporter) Import(path string) (*types.Package, error) {
	tc := im.tc
	if pkg, ok := tc.cache[path]; ok {
		return pkg, nil
	}
	if path == im.modPath || strings.HasPrefix(path, im.modPath+"/") {
		if tc.busy[path] {
			return nil, fmt.Errorf("mpilint: import cycle through %s", path)
		}
		tc.busy[path] = true
		defer delete(tc.busy, path)

		dir := filepath.Join(im.root, filepath.FromSlash(strings.TrimPrefix(path, im.modPath)))
		names, err := goFilesIn(dir, false)
		if err != nil {
			return nil, err
		}
		var files []*ast.File
		for _, name := range names {
			f, err := parser.ParseFile(tc.fset, name, nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		if len(files) == 0 {
			return nil, fmt.Errorf("mpilint: no Go files in %s", dir)
		}
		conf := types.Config{Importer: im, Error: func(error) {}}
		pkg, err := conf.Check(path, tc.fset, files, nil)
		if pkg != nil && pkg.Complete() {
			tc.cache[path] = pkg
		}
		return pkg, err
	}
	pkg, err := tc.std.Import(path)
	if pkg != nil {
		tc.cache[path] = pkg
	}
	return pkg, err
}

// --- type matching helpers ---

// kind classifies an expression's role in the mpi API.
type kind int

const (
	kNone kind = iota
	kProc
	kComm
	kRequest
	kReqSlice
)

// kindOfType maps a types.Type to its mpi kind.
func kindOfType(t types.Type) kind {
	if t == nil {
		return kNone
	}
	switch tt := t.(type) {
	case *types.Pointer:
		return namedKind(tt.Elem(), true)
	case *types.Slice:
		if p, ok := tt.Elem().(*types.Pointer); ok {
			if namedKind(p.Elem(), true) == kRequest {
				return kReqSlice
			}
		}
		return kNone
	default:
		return namedKind(t, false)
	}
}

func namedKind(t types.Type, ptr bool) kind {
	n, ok := t.(*types.Named)
	if !ok {
		return kNone
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != mpiPkgPath {
		return kNone
	}
	switch obj.Name() {
	case "Proc":
		if ptr {
			return kProc
		}
	case "Comm":
		return kComm
	case "Request":
		if ptr {
			return kRequest
		}
	}
	return kNone
}

// constIs reports whether obj is the named constant of the mpi package
// (AnySource / AnyTag).
func constIs(obj types.Object, name string) bool {
	c, ok := obj.(*types.Const)
	return ok && c.Pkg() != nil && c.Pkg().Path() == mpiPkgPath && c.Name() == name
}
